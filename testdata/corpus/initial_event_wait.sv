// An initial block that waits on a clock another block generates: the
// in-body @(posedge clk) makes clk an input of the waiting process.
module initial_event_wait_tb;
  bit clk;
  bit [7:0] count;
  bit [7:0] seen;
  initial begin
    repeat (8) begin
      clk <= #5ns 1;
      clk <= #10ns 0;
      #10ns;
    end
  end
  always_ff @(posedge clk) count <= count + 1;
  initial begin
    @(posedge clk);
    @(posedge clk);
    @(negedge clk);
    seen <= count;
    @(count);
    assert(seen == 8'd2);
    assert(count == 8'd3);
  end
endmodule
