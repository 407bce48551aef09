// $clog2 at the edges of a 64-bit argument, folded as a localparam and in
// an expression. Both flows looped on (1 << n) < v, and 1 << 64 is 0 in
// Go: an argument above 2^63 hung the frontend on every engine.
module clog2_bounds_tb;
  localparam int TOP = $clog2(64'hFFFFFFFFFFFFFFFF);
  localparam int HALF = $clog2(64'h8000000000000001);
  bit [31:0] r;
  initial begin
    assert($clog2(0) == 0);
    assert($clog2(1) == 0);
    assert($clog2(2) == 1);
    assert($clog2(3) == 2);
    assert($clog2(64'h100000000) == 32);
    assert($clog2(64'h100000001) == 33);
    assert($clog2(64'h8000000000000000) == 63);
    assert($clog2(64'h8000000000000001) == 64);
    assert($clog2(64'hFFFFFFFFFFFFFFFF) == 64);
    assert(TOP == 64);
    assert(HALF == 64);
    r <= $clog2(64'hFFFFFFFFFFFFFFFF);
    #1ns;
    assert(r == 64);
    r <= HALF - 1;
    #1ns;
    assert(r == 63);
  end
endmodule
