// generated-by: cdckit 0.1.0
// class: bind

bind top sync0_ndff_check u_sync0_ndff_check (.clk_src(clk_a), .rst_src_n(rst_a_n), .src_cdc3(gcode));
bind top sync1_ndff_check u_sync1_ndff_check (.clk_dst(clk_b), .rst_dst_n(rst_b_n), .src_cdc4(src));
bind top sync2_pulse_check u_sync2_pulse_check (.clk_src(clk_a), .rst_src_n(rst_a_n), .pulse_in(pulse_in));
bind top sync3_mux_check u_sync3_mux_check (.clk_dst(clk_b), .rst_dst_n(rst_b_n), .sel_en(e2), .data_bus(bus));
bind top sync4_fifo_check u_sync4_fifo_check (.clk_w(clk_a), .clk_r(clk_b), .rst_w_n(rst_a_n), .rst_r_n(rst_b_n), .wgray(u_fifo.wgray), .rgray(u_fifo.rgray), .rsync(u_fifo.wq2), .wsync(u_fifo.rq2));
bind top cg_gdst_check u_cg_gdst_check (.clk_root(clk_a), .rst_root_n(rst_a_n), .gate_en(gate_ff));
bind top signal_config_check u_signal_config_check (.clk_ref(clk_a), .rst_ref_n(rst_a_n), .sig_cfg_r(cfg_r));
