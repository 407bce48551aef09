// The fabric_wide workload's design at 4 lanes and 40 cycles, seed 1:
// the text fabricDesign(4, 40, 1) of benchmark/inputs.go generates,
// written here once so that the inner-loop tests and benchmarks run the
// kernel-bound shape without the benchmark package. Its top is fabric_tb.
// Regenerate it from that function, not by hand.
// 8-bit Fibonacci LFSR (taps x^8 + x^6 + x^5 + x^4 + 1) checked against a
// bit-true software model for a full walk of 255 states.
module lfsr (input clk, input rst, output [7:0] q);
  always_ff @(posedge clk) begin
    if (rst) q <= 8'h01;
    else q <= {q[6:0], q[7] ^ q[5] ^ q[4] ^ q[3]};
  end
endmodule

// Gray encoder/decoder with an exhaustive 8-bit self-checking testbench.
// Checks the two defining properties: decode(encode(i)) == i, and adjacent
// codes differ in exactly one bit position.
module gray_enc #(parameter int W = 8) (input [W-1:0] bin, output [W-1:0] g);
  assign g = bin ^ (bin >> 1);
endmodule

module gray_dec #(parameter int W = 8) (input [W-1:0] g, output [W-1:0] bin);
  always_comb begin
    automatic int i;
    automatic bit [7:0] acc;
    acc = g;
    for (i = 1; i < W; i = i + 1) begin
      acc = acc ^ (g >> i);
    end
    bin = acc;
  end
endmodule

// Stream delayer: a valid/data stream delayed by exactly four cycles
// through a register pipe, compared against a software model shifting in
// lock-step with the hardware.
module stream_delayer #(parameter int W = 8)
  (input clk, input rst, input vin, input [W-1:0] din,
   output vout, output [W-1:0] dout);
  bit [3:0] v;
  bit [W-1:0] d0, d1, d2, d3;
  always_ff @(posedge clk) begin
    if (rst) v <= 0;
    else v <= {v[2:0], vin};
    d3 <= d2;
    d2 <= d1;
    d1 <= d0;
    d0 <= din;
  end
  assign vout = v[3];
  assign dout = d3;
endmodule

// 4-tap FIR filter (coefficients 1, 2, 3, 4) with a cycle-accurate software
// model in the testbench.
module fir #(parameter int W = 16) (input clk, input rst, input [W-1:0] x, output [W-1:0] y);
  bit [W-1:0] d0, d1, d2, d3;
  always_ff @(posedge clk) begin
    if (rst) begin
      d0 <= 0;
      d1 <= 0;
      d2 <= 0;
      d3 <= 0;
    end else begin
      d3 <= d2;
      d2 <= d1;
      d1 <= d0;
      d0 <= x;
    end
  end
  assign y = d0 + 2 * d1 + 3 * d2 + 4 * d3;
endmodule

// Depth-8 FIFO queue with full/empty flags, exercised through fill, drain,
// and simultaneous push/pop phases; ordering is checked against the
// arithmetic sequence of pushed values.
module fifo #(parameter int W = 16)
  (input clk, input rst, input push, input [W-1:0] din,
   input pop, output [W-1:0] dout, output full, output empty);
  bit [W-1:0] mem [0:7];
  bit [2:0] rp, wp;
  bit [3:0] cnt;
  assign full = cnt == 8;
  assign empty = cnt == 0;
  always_ff @(posedge clk) begin
    if (rst) begin
      rp <= 0;
      wp <= 0;
      cnt <= 0;
      dout <= 0;
    end else begin
      if (push && cnt != 8) begin
        mem[wp] = din;
        wp <= wp + 1;
      end
      if (pop && cnt != 0) begin
        dout <= mem[rp];
        rp <= rp + 1;
      end
      if (push && cnt != 8 && !(pop && cnt != 0)) cnt <= cnt + 1;
      else if (pop && cnt != 0 && !(push && cnt != 8)) cnt <= cnt - 1;
    end
  end
endmodule

// 16-bit leading-zero counter, cross-checked against a reference model in
// the testbench over a sweep of bit patterns.
module lzc #(parameter int W = 16) (input [W-1:0] x, output [4:0] n);
  always_comb begin
    automatic int i;
    automatic bit [4:0] cnt;
    automatic bit done;
    cnt = 0;
    done = 0;
    for (i = W; i > 0; i = i - 1) begin
      if (!done) begin
        if (x[i-1]) done = 1;
        else cnt = cnt + 1;
      end
    end
    n = cnt;
  end
endmodule

// Four-requester round-robin arbiter with a rotating priority pointer,
// cross-checked against a software model over several request patterns.
module rr_arbiter (input clk, input rst, input [3:0] req, output [3:0] gnt);
  bit [1:0] ptr;
  always_comb begin
    automatic int k;
    automatic int idx;
    automatic bit found;
    automatic bit [3:0] gv;
    gv = 0;
    found = 0;
    for (k = 0; k < 4; k = k + 1) begin
      idx = (ptr + k) & 3;
      if (!found && req[idx]) begin
        gv = 4'b0001 << idx;
        found = 1;
      end
    end
    gnt = gv;
  end
  always_ff @(posedge clk) begin
    if (rst) ptr <= 0;
    else if (gnt[0]) ptr <= 1;
    else if (gnt[1]) ptr <= 2;
    else if (gnt[2]) ptr <= 3;
    else if (gnt[3]) ptr <= 0;
  end
endmodule

module fabric_tb;
  bit clk, rst;

  bit [7:0] q0, g0, dec0, sd0;
  bit vin0, vout0, pop0, full0, empty0;
  bit [15:0] x0, y0, fo0;
  bit [4:0] n0;
  lfsr i_lfsr0 (.clk(clk), .rst(rst), .q(q0));
  gray_enc #(.W(8)) i_enc0 (.bin(q0), .g(g0));
  gray_dec #(.W(8)) i_dec0 (.g(g0), .bin(dec0));
  assign vin0 = q0[1];
  stream_delayer #(.W(8)) i_sd0 (.clk(clk), .rst(rst), .vin(vin0), .din(dec0),
                                 .vout(vout0), .dout(sd0));
  assign x0 = {8'd0, sd0};
  fir #(.W(16)) i_fir0 (.clk(clk), .rst(rst), .x(x0), .y(y0));
  assign pop0 = q0[6];
  fifo #(.W(16)) i_fifo0 (.clk(clk), .rst(rst), .push(vout0), .din(y0), .pop(pop0),
                          .dout(fo0), .full(full0), .empty(empty0));
  lzc #(.W(16)) i_lzc0 (.x(fo0), .n(n0));

  bit [7:0] q1, g1, dec1, sd1;
  bit vin1, vout1, pop1, full1, empty1;
  bit [15:0] x1, y1, fo1;
  bit [4:0] n1;
  lfsr i_lfsr1 (.clk(clk), .rst(rst), .q(q1));
  gray_enc #(.W(8)) i_enc1 (.bin(q1), .g(g1));
  gray_dec #(.W(8)) i_dec1 (.g(g1), .bin(dec1));
  assign vin1 = q1[1];
  stream_delayer #(.W(8)) i_sd1 (.clk(clk), .rst(rst), .vin(vin1), .din(dec1),
                                 .vout(vout1), .dout(sd1));
  assign x1 = {8'd1, sd1};
  fir #(.W(16)) i_fir1 (.clk(clk), .rst(rst), .x(x1), .y(y1));
  assign pop1 = q1[4];
  fifo #(.W(16)) i_fifo1 (.clk(clk), .rst(rst), .push(vout1), .din(y1), .pop(pop1),
                          .dout(fo1), .full(full1), .empty(empty1));
  lzc #(.W(16)) i_lzc1 (.x(fo1), .n(n1));

  bit [7:0] q2, g2, dec2, sd2;
  bit vin2, vout2, pop2, full2, empty2;
  bit [15:0] x2, y2, fo2;
  bit [4:0] n2;
  lfsr i_lfsr2 (.clk(clk), .rst(rst), .q(q2));
  gray_enc #(.W(8)) i_enc2 (.bin(q2), .g(g2));
  gray_dec #(.W(8)) i_dec2 (.g(g2), .bin(dec2));
  assign vin2 = q2[0];
  stream_delayer #(.W(8)) i_sd2 (.clk(clk), .rst(rst), .vin(vin2), .din(dec2),
                                 .vout(vout2), .dout(sd2));
  assign x2 = {8'd2, sd2};
  fir #(.W(16)) i_fir2 (.clk(clk), .rst(rst), .x(x2), .y(y2));
  assign pop2 = q2[4];
  fifo #(.W(16)) i_fifo2 (.clk(clk), .rst(rst), .push(vout2), .din(y2), .pop(pop2),
                          .dout(fo2), .full(full2), .empty(empty2));
  lzc #(.W(16)) i_lzc2 (.x(fo2), .n(n2));

  bit [7:0] q3, g3, dec3, sd3;
  bit vin3, vout3, pop3, full3, empty3;
  bit [15:0] x3, y3, fo3;
  bit [4:0] n3;
  lfsr i_lfsr3 (.clk(clk), .rst(rst), .q(q3));
  gray_enc #(.W(8)) i_enc3 (.bin(q3), .g(g3));
  gray_dec #(.W(8)) i_dec3 (.g(g3), .bin(dec3));
  assign vin3 = q3[6];
  stream_delayer #(.W(8)) i_sd3 (.clk(clk), .rst(rst), .vin(vin3), .din(dec3),
                                 .vout(vout3), .dout(sd3));
  assign x3 = {8'd3, sd3};
  fir #(.W(16)) i_fir3 (.clk(clk), .rst(rst), .x(x3), .y(y3));
  assign pop3 = q3[7];
  fifo #(.W(16)) i_fifo3 (.clk(clk), .rst(rst), .push(vout3), .din(y3), .pop(pop3),
                          .dout(fo3), .full(full3), .empty(empty3));
  lzc #(.W(16)) i_lzc3 (.x(fo3), .n(n3));

  bit [3:0] req0, gnt0;
  assign req0 = {n3[0], n2[0], n1[0], n0[0]};
  rr_arbiter i_arb0 (.clk(clk), .rst(rst), .req(req0), .gnt(gnt0));

  initial begin
    automatic int i;
    rst <= 1;
    clk <= #1ns 1;
    clk <= #2ns 0;
    #2ns;
    rst <= 0;
    for (i = 0; i < 40; i = i + 1) begin
      clk <= #1ns 1;
      clk <= #2ns 0;
      #2ns;
      assert(dec0 == q0);
      assert(dec1 == q1);
      assert(dec2 == q2);
      assert(dec3 == q3);
      assert((gnt0 & (gnt0 - 1)) == 0);
    end
    $finish;
  end
endmodule
