package svsim

// Programs counts the distinct resolved programs of the module name in
// the instance tree: one per distinct assignment of its parameters.
func (d *Design) Programs(name string) int {
	seen := map[*module]bool{}
	var walk func(*instance)
	walk = func(in *instance) {
		if in.mod.name == name {
			seen[in.mod] = true
		}
		for _, it := range in.mod.items {
			if it.inst != nil {
				walk(it.inst)
			}
		}
	}
	walk(d.top)
	return len(seen)
}
