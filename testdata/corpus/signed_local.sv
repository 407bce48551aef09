// A variable declared `int` is signed wherever it lives: a block local, a
// function argument, the function's result variable, read plainly or
// through ++/--. Each loop below ends only if its compare is signed (two
// `int` operands; an unsized literal such as 0 reads as unsigned on both
// flows, so the bounds are variables). SVSim once read every local as
// unsigned and spun the first loop until its loop budget ran out.
module signed_local_tb;
  logic [31:0] r, q, d;

  function int below(int k, int floor);
    below = k;
    while (below >= floor) below = below - 1;
  endfunction

  initial begin
    int i, z, n, j, m;
    z = 0;
    n = 0;
    i = 7;
    while (i >= z) begin
      i = i - 1;
      n = n + 1;
    end
    r = n;
    j = 3;
    m = 0;
    while (j-- >= z) m = m + 1;
    q = m;
    d = below(7, z);
    #1ns;
    assert (r == 8);
    assert (q == 4);
    assert (d == 32'hffffffff);
  end
endmodule
