// A clock made with blocking writes in an initial block: every write
// still pending when the process suspends is driven before the handoff.
module blocking_clock_tb;
  bit clk;
  bit [7:0] count;
  initial begin
    clk = 0;
    repeat (4) begin
      #1ns;
      clk = ~clk;
    end
    #1ns;
    assert(count == 8'd2);
    clk = 1;
  end
  always_ff @(posedge clk) count <= count + 1;
  initial begin
    #10ns;
    assert(count == 8'd3);
  end
endmodule
