// Every assignment-target shape (whole, part, +: and concat; bit writes are
// bit_write.sv) on every place a name can live: a block local, a function's result, a net written
// blocking in always_comb and in always_ff (through its shadow), and a net
// written nonblocking. And both kinds of edge wait: a block's own list
// (posedge clk or negedge rst_n) and an @(negedge) inside an initial block.
module assign_places_tb;
  bit clk, rst_n;
  bit [2:0] sel;
  bit [7:0] in, loc, res, cb, fb, cnt, seen, np, nu;
  bit [3:0] lh, ch, cl, fh, fl, nh, nl;

  function bit [7:0] shape(bit [7:0] x);
    bit [3:0] t;
    {t, shape} = {x[3:0], x};
    shape[7:6] = 2'b10;
    shape[t[1:0] +: 2] = 2'b01;
  endfunction

  always_comb begin
    cb = in;
    cb[7:6] = in[1:0];
    cb[sel +: 2] = 2'b01;
    {ch, cl} = cb;
  end

  always_ff @(posedge clk) begin
    fb = fb + 8'd1;
    fb[5:4] = 2'b10;
    fb[sel +: 2] = 2'b11;
    {fh, fl} = fb;
  end

  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      cnt <= 8'd0;
      np <= 8'd0;
      nu <= 8'd0;
      {nh, nl} <= 8'd0;
    end else begin
      cnt <= cnt + 8'd1;
      np[7:4] <= cnt[3:0];
      nu[cnt[1:0] +: 2] <= 2'b11;
      {nh, nl} <= {cnt[3:0], ~cnt[3:0]};
    end
  end

  initial begin
    @(negedge rst_n);
    seen <= cnt;
  end

  initial begin
    in <= 8'hA5;
    sel <= 3'd1;
    rst_n <= 1;
    #1ns;
    begin
      automatic bit [7:0] v = 8'h00;
      automatic bit [3:0] w;
      v[7:6] = 2'b11;
      v[sel +: 2] = 2'b01;
      {w, lh} = {v[3:0], 4'h6};
      loc = v ^ {w, 4'h0};
    end
    res <= shape(8'h3E);
    repeat (3) begin
      clk <= 1;
      #1ns;
      clk <= 0;
      #1ns;
    end
    assert(loc == 8'hE2);
    assert(lh == 4'h6);
    assert(res == 8'hB6);
    assert(cb == 8'h63);
    assert(ch == 4'h6);
    assert(cl == 4'h3);
    assert(fb == 8'h2F);
    assert(fh == 4'h2);
    assert(fl == 4'hF);
    assert(cnt == 8'd3);
    assert(np == 8'h20);
    assert(nu == 8'h0F);
    assert(nh == 4'h2);
    assert(nl == 4'hD);
    rst_n <= 0;
    #1ns;
    assert(seen == 8'd3);
    assert(cnt == 8'd0);
    assert(nu == 8'h00);
    assert(nl == 4'h0);
    rst_n <= 1;
    #1ns;
    clk <= 1;
    #1ns;
    assert(cnt == 8'd1);
    assert(nu == 8'h03);
    assert(nl == 4'hF);
    assert(fb == 8'h26);
    $finish;
  end
endmodule
