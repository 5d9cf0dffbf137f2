// generated-by: cdckit 0.1.0
// class: ndff_sync_check
// sources: sync0, cdc3
module sync0_ndff_check (
  input wire clk_src,
  input wire rst_src_n,
  input wire [2:0] src_cdc3
);

  // checker: gray_code:cdc3
  property p_gray_cdc3;
    @(posedge clk_src) disable iff (!rst_src_n)
      ((src_cdc3 ^ $past(src_cdc3)) == 3'h0) || ((src_cdc3 ^ $past(src_cdc3)) == 3'h1) || ((src_cdc3 ^ $past(src_cdc3)) == 3'h2) || ((src_cdc3 ^ $past(src_cdc3)) == 3'h4);
  endproperty
  assert property (p_gray_cdc3);

endmodule
