package moore

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// $readmemh support. The task is resolved at elaboration time: an
// "initial $readmemh(file, array);" call fills the array's initial image
// before any process is generated, exactly like an '{...} initializer.
// This keeps the single-owner array discipline intact (the load claims no
// ownership — the array still belongs to whichever process reads or
// writes it at runtime) and makes the load visible to every backend that
// elaborates through this frontend, including svsim.

// ReadmemhCall is one $readmemh(file, array) task call found in a
// process body.
type ReadmemhCall struct {
	File  string // hex image path, quotes stripped
	Array string // target unpacked array
}

// CollectReadmemh walks a statement tree and returns every $readmemh
// call in it, validating the argument shape: a string literal path and a
// plain array identifier.
func CollectReadmemh(s Stmt) ([]ReadmemhCall, error) {
	var out []ReadmemhCall
	var err error
	Inspect(s, func(n Node) bool {
		if err != nil {
			return false
		}
		st, ok := n.(*SysCallStmt)
		if !ok || st.Name != "$readmemh" {
			return true
		}
		if len(st.Args) != 2 {
			err = fmt.Errorf("$readmemh takes (file, array), got %d arguments", len(st.Args))
			return false
		}
		lit, ok := st.Args[0].(*StringLit)
		if !ok {
			err = fmt.Errorf("$readmemh: first argument must be a string literal path")
			return false
		}
		id, ok := st.Args[1].(*Ident)
		if !ok {
			err = fmt.Errorf("$readmemh: second argument must name an unpacked array")
			return false
		}
		out = append(out, ReadmemhCall{
			File:  strings.Trim(lit.Text, `"`),
			Array: id.Name,
		})
		return false
	})
	return out, err
}

// LoadHexImage reads a $readmemh image from disk and parses it for an
// array of `length` elements of `width` bits each. Missing files and
// malformed images are reported with the path.
func LoadHexImage(path string, width, length int) ([]uint64, error) {
	src, err := ReadHexFile(path)
	if err != nil {
		return nil, err
	}
	return ParseHexFile(path, src, width, length)
}

// ReadHexFile reads the text of a $readmemh image; a file that cannot be
// read is reported with the path.
func ReadHexFile(path string) (string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("$readmemh: cannot read %q: %w", path, err)
	}
	return string(src), nil
}

// ParseHexFile is ParseHexImage over the text of the image at path, a
// malformed image reported with the path.
func ParseHexFile(path, src string, width, length int) ([]uint64, error) {
	img, err := ParseHexImage(src, width, length)
	if err != nil {
		return nil, fmt.Errorf("$readmemh: %s: %w", path, err)
	}
	return img, nil
}

// ParseHexImage parses $readmemh text: whitespace-separated hex words,
// optional underscores, // and /* */ comments, and @addr directives. The
// result always has exactly `length` elements (unwritten entries stay
// zero). Addresses past the array and values wider than the element are
// errors.
func ParseHexImage(src string, width, length int) ([]uint64, error) {
	img := make([]uint64, length)
	// Strip comments, preserving token boundaries.
	var clean strings.Builder
	for i := 0; i < len(src); {
		switch {
		case strings.HasPrefix(src[i:], "//"):
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case strings.HasPrefix(src[i:], "/*"):
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("unterminated block comment")
			}
			i += 2 + end + 2
			clean.WriteByte(' ')
		default:
			clean.WriteByte(src[i])
			i++
		}
	}
	addr := 0
	for _, tok := range strings.Fields(clean.String()) {
		if tok[0] == '@' {
			a, err := strconv.ParseUint(strings.ReplaceAll(tok[1:], "_", ""), 16, 64)
			if err != nil {
				return nil, fmt.Errorf("bad address directive %q", tok)
			}
			if a >= uint64(length) {
				return nil, fmt.Errorf("address @%x out of range (array has %d elements)", a, length)
			}
			addr = int(a)
			continue
		}
		v, err := strconv.ParseUint(strings.ReplaceAll(tok, "_", ""), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("bad hex word %q", tok)
		}
		if width < 64 && v >= uint64(1)<<width {
			return nil, fmt.Errorf("word %q wider than the %d-bit element", tok, width)
		}
		if addr >= length {
			return nil, fmt.Errorf("word %d past the end of the %d-element array", addr, length)
		}
		img[addr] = v
		addr++
	}
	return img, nil
}
