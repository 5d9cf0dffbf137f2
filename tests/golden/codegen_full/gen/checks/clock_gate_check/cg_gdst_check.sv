// generated-by: cdckit 0.1.0
// class: clock_gate_check
// sources: gdst
module cg_gdst_check (
  input wire clk_root,
  input wire rst_root_n,
  input wire gate_en
);

  // checker: clock_gate:gdst
  property p_gate_gdst;
    @(posedge clk_root) disable iff (!rst_root_n)
      !((gate_en != $past(gate_en)) && ($past(gate_en, 1) != $past(gate_en, 2)));
  endproperty
  assert property (p_gate_gdst);

endmodule
