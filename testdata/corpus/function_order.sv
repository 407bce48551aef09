// Three-engine corpus entry: a function called before its declaration
// and a recursive function with a base case. Moore compiles both only
// because it declares every function signature of a module before it
// generates any body.
module fwd_tb;
  bit [31:0] r;
  function bit [31:0] g(bit [31:0] x);
    g = h(x) + 1;
  endfunction
  function bit [31:0] h(bit [31:0] x);
    h = x * 2;
  endfunction
  function bit [31:0] fact(bit [31:0] n);
    if (n <= 1) fact = 1;
    else fact = n * fact(n - 1);
  endfunction
  initial begin
    r <= g(20);
    #1ns;
    assert(r == 41);
    r <= fact(6);
    #1ns;
    assert(r == 720);
  end
endmodule
