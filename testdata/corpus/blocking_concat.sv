// A blocking concat target shadows each of its nets: c must read the a
// and b written in the same pass.
module blocking_concat_tb;
  bit [7:0] x;
  bit [3:0] a, b;
  bit [4:0] c;
  always_comb begin
    {a, b} = x;
    c = a + b;
  end
  initial begin
    x <= 8'h35;
    #1ns;
    assert(a == 4'h3);
    assert(b == 4'h5);
    assert(c == 5'd8);
    x <= 8'h72;
    #1ns;
    assert(b == 4'h2);
    assert(c == 5'd9);
  end
endmodule
