// A bit write x[i] = b to a packed vector, on every place a name can live
// and with a constant and a dynamic index. Moore used to emit insf, which
// indexes only arrays and structs, so every LLHD leg stopped at run time
// with "insf index 0 out of range"; a bit write is now the one-bit field
// x[i +: 1].
module bit_write_tb;
  bit clk;
  bit [2:0] sel;
  bit [7:0] in, loc, res, cb, fb, nb;

  function bit [7:0] flip(bit [7:0] x, bit [2:0] i);
    flip = x;
    flip[0] = 1'b1;
    flip[i] = ~x[i];
  endfunction

  always_comb begin
    cb = in;
    cb[0] = ~in[0];
    cb[sel] = 1'b1;
  end

  always_ff @(posedge clk) begin
    fb[7] = 1'b1;
    fb[sel] = ~fb[sel];
    nb[sel] <= 1'b1;
  end

  initial begin
    in <= 8'h5A;
    sel <= 3'd2;
    #1ns;
    begin
      automatic bit [7:0] v = 8'h00;
      v[7] = 1;
      v[sel] = 1'b1;
      v[sel + 3'd1] = 1'b1;
      loc = v;
    end
    res <= flip(8'hF0, 3'd5);
    clk <= 1;
    #1ns;
    assert(cb == 8'h5F);
    assert(fb == 8'h84);
    assert(nb == 8'h04);
    clk <= 0;
    sel <= 3'd4;
    #1ns;
    clk <= 1;
    #1ns;
    assert(loc == 8'h8C);
    assert(res == 8'hD1);
    assert(cb == 8'h5B);
    assert(fb == 8'h94);
    assert(nb == 8'h14);
    $finish;
  end
endmodule
