// A begin ... end local hides a net (or an outer local) of the same name
// only up to its end (IEEE 1800 §6.21), and a for loop's own variable only
// up to the loop's end. Both flows used to keep a block's locals to the
// end of the process: c read the local's 9, not the net's 5, on every
// engine alike, so no differential leg could see it.
module block_scope_tb;
  bit [7:0] a, b, c, d, e, f, g, h, k;
  initial begin
    a <= 8'd5;
    k <= 8'd40;
    #1ns;
    begin
      automatic bit [7:0] a = 8'd9;
      b = a;
    end
    c = a;
    begin
      automatic bit [7:0] x = 8'd1;
      begin
        automatic bit [7:0] x = 8'd2;
        d = x;
      end
      e = x;
    end
    begin
      automatic bit [7:0] s = 8'd0;
      for (int k = 0; k < 3; k = k + 1) s = s + 8'd1;
      h = s + k;
    end
    #1ns;
    assert(b == 8'd9);
    assert(c == 8'd5);
    assert(d == 8'd2);
    assert(e == 8'd1);
    assert(h == 8'd43);
    assert(f == 8'd7);
    assert(g == 8'd12);
  end
  always_comb begin
    begin
      automatic bit [7:0] a = 8'd7;
      f = a;
    end
    g = a + f;
  end
endmodule
