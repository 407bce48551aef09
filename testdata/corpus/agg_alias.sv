// The frontend's memory idiom (an unpacked array owned by one process:
// ld -> extf to read, ld -> insf -> st to write) through all six LLHD
// legs and the SVSim AST engine. A read taken before a write to the same
// element must keep the old element, the write must be visible to the
// next read, and the neighbouring element must not move.
module agg_alias_tb;
  bit clk;
  bit [7:0] mem [0:3];
  bit [7:0] old, nxt, before, after, other;
  bit [1:0] idx;
  initial begin
    automatic int i;
    for (i = 0; i < 6; i = i + 1) begin
      clk <= #1ns 1;
      clk <= #2ns 0;
      #2ns;
      assert(after == before + 8'd10);
      if (i < 4) assert(before == 8'd0);
      else assert(before == 8'd10);
      if (i == 3) assert(other == 8'd10);
      else if (i < 4) assert(other == 8'd0);
      else assert(other == 8'd10);
    end
    #1ns;
    assert(after == 8'd20);
    assert(idx == 2'd2);
    $finish;
  end
  always_ff @(posedge clk) begin
    old = mem[idx];
    mem[idx] = old + 8'd10;
    nxt = mem[idx];
    before <= old;
    after <= nxt;
    other <= mem[idx + 2'd1];
    idx <= idx + 2'd1;
  end
endmodule
