#include "rtad/ml/kernels.hpp"

namespace rtad::ml::kernels {

using gpgpu::assemble;
using gpgpu::Program;

namespace {

// -log2(e) and friends as literal text so every kernel agrees bit-for-bit.
constexpr const char* kNegLog2E = "-1.4426950408889634";
constexpr const char* kPosLog2E = "1.4426950408889634";
constexpr const char* kNeg2Log2E = "-2.8853900817779268";
constexpr const char* kLn2 = "0.6931471805599453";

}  // namespace

Program elm_hidden() {
  return assemble(R"(
.kernel elm_hidden
.vgprs 16
.lds 0
  s_load_dword s4, s0, 0      ; W base
  s_load_dword s5, s0, 4      ; x base (raw counts)
  s_load_dword s6, s0, 8      ; h base
  s_load_dword s7, s0, 12     ; d
  s_load_dword s8, s0, 16     ; bias base
  s_load_dword s9, s0, 20     ; inv_window (f32)
  s_waitcnt 0
  ; neuron index n = wg*64 + lane
  s_lshl_b32 s10, s1, 6
  v_mov_b32 v2, s10
  v_add_i32 v2, v2, v0
  ; W row byte offset = n * d * 4
  s_lshl_b32 s11, s7, 2
  v_mov_b32 v3, s11
  v_mul_lo_i32 v3, v2, v3
  v_mov_b32 v4, 0.0           ; acc
  s_mov_b32 s12, 0            ; k
  s_mov_b32 s13, s5           ; x ptr
eh_loop:
  s_cmp_ge_i32 s12, s7
  s_cbranch_scc1 eh_done
  s_load_dword s14, s13, 0    ; raw count x[k]
  s_waitcnt 0
  v_mov_b32 v5, s14
  v_cvt_f32_u32 v5, v5
  v_mul_f32 v5, v5, s9        ; normalize
  global_load_dword v6, v3, s4
  s_waitcnt 0
  v_mac_f32 v4, v6, v5
  v_add_i32 v3, v3, 4
  s_add_i32 s12, s12, 1
  s_add_i32 s13, s13, 4
  s_branch eh_loop
eh_done:
  ; + bias, then sigmoid
  v_lshlrev_b32 v7, 2, v2
  global_load_dword v8, v7, s8
  s_waitcnt 0
  v_add_f32 v4, v4, v8
  v_mul_f32 v9, v4, )" + std::string(kNegLog2E) + R"(
  v_exp_f32 v9, v9
  v_add_f32 v9, v9, 1.0
  v_rcp_f32 v9, v9
  global_store_dword v9, v7, s6
  s_endpgm
)");
}

Program elm_recon() {
  // Lane packing: the wavefront's 64 lanes are split into 64/d groups of d
  // lanes; lane = grp*d + j computes output j's partial reconstruction from
  // the d hidden neurons of its group. Every lane is busy and the neuron
  // loop is only d iterations — this is what keeps the deployed ELM an
  // order lighter than the LSTM (§IV-C).
  return assemble(R"(
.kernel elm_recon
.vgprs 16
.lds 0
  s_load_dword s4, s0, 0      ; betaT base
  s_load_dword s5, s0, 4      ; h base
  s_load_dword s6, s0, 8      ; partial base
  s_load_dword s7, s0, 12     ; d (power of two, <= 32)
  s_load_dword s8, s0, 16     ; log2(d)
  s_waitcnt 0
  ; lane roles: j = lane & (d-1), grp = lane >> log2d
  s_add_i32 s10, s7, -1
  v_and_b32 v2, s10, v0       ; j
  v_lshrrev_b32 v3, s8, v0    ; grp
  s_lshl_b32 s11, s7, 2       ; betaT row stride d*4
  s_add_i32 s12, s8, 2        ; log2d + 2
  s_mul_i32 s13, s8, 2
  s_add_i32 s13, s13, 2       ; 2*log2d + 2
  ; betaT address: grp*(d*d*4) + j*4, base + wg*64*d*4
  v_lshlrev_b32 v4, s13, v3
  v_lshlrev_b32 v5, 2, v2
  v_add_i32 v4, v4, v5
  s_lshl_b32 s14, s1, 6
  s_mul_i32 s14, s14, s11
  s_add_i32 s14, s4, s14
  ; h address: grp*d*4, base + wg*256
  v_lshlrev_b32 v6, s12, v3
  s_lshl_b32 s15, s1, 8
  s_add_i32 s15, s5, s15
  v_mov_b32 v7, 0.0           ; acc
  s_mov_b32 s16, s7           ; m countdown (d neurons per group)
er_loop:
  s_cmp_lt_i32 s16, 1
  s_cbranch_scc1 er_done
  global_load_dword v8, v6, s15   ; h[grp*d + m]
  global_load_dword v9, v4, s14   ; betaT[row, j]
  s_waitcnt 0
  v_mac_f32 v7, v9, v8
  v_add_i32 v4, v4, s11
  v_add_i32 v6, v6, 4
  s_sub_i32 s16, s16, 1
  s_branch er_loop
er_done:
  ; partial[(wg*groups + grp)*d + j]
  v_lshlrev_b32 v10, s12, v3
  v_add_i32 v10, v10, v5
  s_lshl_b32 s17, s1, 8       ; wg * 64 * 4
  s_add_i32 s17, s6, s17
  global_store_dword v7, v10, s17
  s_endpgm
)");
}

Program elm_score() {
  // LDS reduce tree over 32 slots (d <= 32 asserted by the compiler).
  std::string src = R"(
.kernel elm_score
.vgprs 20
.lds 256
  s_load_dword s4, s0, 0      ; partial base
  s_load_dword s5, s0, 4      ; x base
  s_load_dword s6, s0, 8      ; d
  s_load_dword s7, s0, 12     ; inv_window
  s_load_dword s8, s0, 16     ; threshold
  s_load_dword s9, s0, 20     ; result base
  s_load_dword s10, s0, 24    ; number of partial groups
  s_waitcnt 0
  ; zero all 64 LDS slots
  v_lshlrev_b32 v2, 2, v0
  v_mov_b32 v3, 0.0
  ds_write_b32 v3, v2
  s_barrier
  ; mask to j < d
  v_mov_b32 v4, s6
  v_cmp_lt_i32 vcc, v0, v4
  s_mov_b64 s16, exec
  s_and_b64 exec, exec, vcc
  ; xhat = sum of per-slice partials
  v_mov_b32 v5, 0.0
  v_mov_b32 v6, v2
  s_lshl_b32 s11, s6, 2       ; d*4
  s_mov_b32 s12, s10
es_loop:
  s_cmp_lt_i32 s12, 1
  s_cbranch_scc1 es_err
  global_load_dword v7, v6, s4
  s_waitcnt 0
  v_add_f32 v5, v5, v7
  v_add_i32 v6, v6, s11
  s_sub_i32 s12, s12, 1
  s_branch es_loop
es_err:
  ; err_j = (x_j - xhat_j)^2
  global_load_dword v8, v2, s5
  s_waitcnt 0
  v_cvt_f32_u32 v8, v8
  v_mul_f32 v8, v8, s7
  v_sub_f32 v9, v8, v5
  v_mul_f32 v9, v9, v9
  ds_write_b32 v9, v2
  s_mov_b64 exec, s16
  s_barrier
)";
  // Unrolled sum-reduce tree: strides 16, 8, 4, 2, 1.
  for (int stride : {16, 8, 4, 2, 1}) {
    src += "  v_cmp_lt_i32 vcc, v0, " + std::to_string(stride) + "\n";
    src += "  s_mov_b64 s18, exec\n";
    src += "  s_and_b64 exec, exec, vcc\n";
    src += "  ds_read_b32 v10, v2\n";
    src += "  ds_read_b32 v11, v2, " + std::to_string(stride * 4) + "\n";
    src += "  v_add_f32 v10, v10, v11\n";
    src += "  ds_write_b32 v10, v2\n";
    src += "  s_mov_b64 exec, s18\n";
    src += "  s_barrier\n";
  }
  src += R"(
  ; lane 0 publishes {flag, score}
  v_cmp_lt_i32 vcc, v0, 1
  s_and_b64 exec, exec, vcc
  ds_read_b32 v12, v2
  global_store_dword v12, v2, s9, 4
  v_mov_b32 v13, s8
  v_cmp_gt_f32 vcc, v12, v13
  v_cndmask_b32 v14, 0, 1
  global_store_dword v14, v2, s9
  s_endpgm
)";
  return assemble(src);
}

Program lstm_gates() {
  return assemble(R"(
.kernel lstm_gates
.vgprs 16
.lds 0
  s_load_dword s4, s0, 0      ; wxT base
  s_load_dword s5, s0, 4      ; wh base
  s_load_dword s6, s0, 8      ; bias base
  s_load_dword s7, s0, 12     ; h base
  s_load_dword s8, s0, 16     ; gates out
  s_load_dword s9, s0, 20     ; token addr
  s_waitcnt 0
  s_load_dword s10, s9, 0     ; token
  s_waitcnt 0
  ; row r = wg*64 + lane; byte offset r*4
  s_lshl_b32 s11, s1, 6
  v_mov_b32 v2, s11
  v_add_i32 v2, v2, v0
  v_lshlrev_b32 v3, 2, v2
  ; acc = wxT[token*256 + r] + b[r]
  s_mul_i32 s12, s10, 1024    ; token * 4H * 4
  s_add_i32 s12, s4, s12
  global_load_dword v4, v3, s12
  s_waitcnt 0
  global_load_dword v5, v3, s6
  s_waitcnt 0
  v_add_f32 v4, v4, v5
  ; wh row byte offset = r * H*4 = r*256
  v_lshlrev_b32 v6, 8, v2
  s_mov_b32 s13, 64           ; k countdown
  s_mov_b32 s14, s7           ; h ptr
lg_loop:
  s_cmp_ge_i32 s13, 1
  s_cbranch_scc0 lg_act
  s_load_dword s15, s14, 0    ; h[k]
  s_waitcnt 0
  global_load_dword v7, v6, s5
  s_waitcnt 0
  v_mov_b32 v8, s15
  v_mac_f32 v4, v7, v8
  v_add_i32 v6, v6, 4
  s_add_i32 s14, s14, 4
  s_sub_i32 s13, s13, 1
  s_branch lg_loop
lg_act:
  ; workgroup 2 owns the g gate (tanh); others sigmoid
  s_cmp_eq_i32 s1, 2
  s_cbranch_scc1 lg_tanh
  v_mul_f32 v9, v4, )" + std::string(kNegLog2E) + R"(
  v_exp_f32 v9, v9
  v_add_f32 v9, v9, 1.0
  v_rcp_f32 v9, v9
  s_branch lg_store
lg_tanh:
  v_mul_f32 v9, v4, )" + std::string(kNeg2Log2E) + R"(
  v_exp_f32 v9, v9
  v_add_f32 v9, v9, 1.0
  v_rcp_f32 v9, v9
  v_add_f32 v9, v9, v9
  v_sub_f32 v9, v9, 1.0
lg_store:
  global_store_dword v9, v3, s8
  s_endpgm
)");
}

Program lstm_state() {
  return assemble(R"(
.kernel lstm_state
.vgprs 16
.lds 0
  s_load_dword s4, s0, 0      ; gates base (i,f,g,o slabs of 256B)
  s_load_dword s5, s0, 4      ; c base
  s_load_dword s6, s0, 8      ; h base
  s_waitcnt 0
  v_lshlrev_b32 v2, 2, v0
  global_load_dword v3, v2, s4        ; i
  global_load_dword v4, v2, s4, 256   ; f
  global_load_dword v5, v2, s4, 512   ; g
  global_load_dword v6, v2, s4, 768   ; o
  global_load_dword v7, v2, s5        ; c_prev
  s_waitcnt 0
  v_mul_f32 v7, v7, v4
  v_mac_f32 v7, v3, v5                ; c = f*c_prev + i*g
  global_store_dword v7, v2, s5
  ; h = o * tanh(c)
  v_mul_f32 v8, v7, )" + std::string(kNeg2Log2E) + R"(
  v_exp_f32 v8, v8
  v_add_f32 v8, v8, 1.0
  v_rcp_f32 v8, v8
  v_add_f32 v8, v8, v8
  v_sub_f32 v8, v8, 1.0
  v_mul_f32 v8, v8, v6
  global_store_dword v8, v2, s6
  s_endpgm
)");
}

Program lstm_logits() {
  return assemble(R"(
.kernel lstm_logits
.vgprs 16
.lds 0
  s_load_dword s4, s0, 0      ; why base
  s_load_dword s5, s0, 4      ; by base
  s_load_dword s6, s0, 8      ; h base
  s_load_dword s7, s0, 12     ; logits base
  s_waitcnt 0
  v_lshlrev_b32 v2, 2, v0
  global_load_dword v3, v2, s5        ; acc = by[r]
  s_waitcnt 0
  v_lshlrev_b32 v4, 8, v0             ; row offset r*256
  s_mov_b32 s10, 64
  s_mov_b32 s11, s6
ll_loop:
  s_cmp_lt_i32 s10, 1
  s_cbranch_scc1 ll_done
  s_load_dword s12, s11, 0
  s_waitcnt 0
  global_load_dword v5, v4, s4
  s_waitcnt 0
  v_mov_b32 v6, s12
  v_mac_f32 v3, v5, v6
  v_add_i32 v4, v4, 4
  s_add_i32 s11, s11, 4
  s_sub_i32 s10, s10, 1
  s_branch ll_loop
ll_done:
  global_store_dword v3, v2, s7
  s_endpgm
)");
}

Program lstm_score() {
  std::string src = R"(
.kernel lstm_score
.vgprs 20
.lds 256
  s_load_dword s4, s0, 0      ; logits base
  s_load_dword s5, s0, 4      ; token addr
  s_load_dword s6, s0, 8      ; ewma addr
  s_load_dword s7, s0, 12     ; alpha (f32)
  s_load_dword s8, s0, 16     ; threshold (f32)
  s_load_dword s9, s0, 20     ; result base
  s_waitcnt 0
  s_load_dword s10, s5, 0     ; token
  s_waitcnt 0
  v_lshlrev_b32 v2, 2, v0
  global_load_dword v3, v2, s4        ; logit_r
  s_waitcnt 0
  ; ---- max reduce over 64 lanes ----
  ds_write_b32 v3, v2
  s_barrier
)";
  for (int stride : {32, 16, 8, 4, 2, 1}) {
    src += "  v_cmp_lt_i32 vcc, v0, " + std::to_string(stride) + "\n";
    src += "  s_mov_b64 s18, exec\n";
    src += "  s_and_b64 exec, exec, vcc\n";
    src += "  ds_read_b32 v10, v2\n";
    src += "  ds_read_b32 v11, v2, " + std::to_string(stride * 4) + "\n";
    src += "  v_max_f32 v10, v10, v11\n";
    src += "  ds_write_b32 v10, v2\n";
    src += "  s_mov_b64 exec, s18\n";
    src += "  s_barrier\n";
  }
  src += R"(
  ; broadcast max, exponentiate
  v_mov_b32 v6, 0
  ds_read_b32 v5, v6          ; max
  v_sub_f32 v9, v3, v5
  v_mul_f32 v9, v9, )" + std::string(kPosLog2E) + R"(
  v_exp_f32 v9, v9            ; e_r = 2^((l_r - max) * log2 e)
  ds_write_b32 v9, v2
  s_barrier
)";
  for (int stride : {32, 16, 8, 4, 2, 1}) {
    src += "  v_cmp_lt_i32 vcc, v0, " + std::to_string(stride) + "\n";
    src += "  s_mov_b64 s18, exec\n";
    src += "  s_and_b64 exec, exec, vcc\n";
    src += "  ds_read_b32 v10, v2\n";
    src += "  ds_read_b32 v11, v2, " + std::to_string(stride * 4) + "\n";
    src += "  v_add_f32 v10, v10, v11\n";
    src += "  ds_write_b32 v10, v2\n";
    src += "  s_mov_b64 exec, s18\n";
    src += "  s_barrier\n";
  }
  src += R"(
  ; lane 0: nll = ln2 * (log2(sum) - (l_tok - max)*log2 e)
  v_cmp_lt_i32 vcc, v0, 1
  s_mov_b64 s18, exec
  s_and_b64 exec, exec, vcc
  ds_read_b32 v12, v6         ; sum
  v_log_f32 v12, v12          ; log2(sum)
  ; l_tok
  v_mov_b32 v13, s10
  v_lshlrev_b32 v13, 2, v13
  global_load_dword v14, v13, s4
  s_waitcnt 0
  v_sub_f32 v14, v14, v5      ; l_tok - max
  v_mul_f32 v14, v14, )" + std::string(kPosLog2E) + R"(
  v_sub_f32 v12, v12, v14
  v_mul_f32 v12, v12, )" + std::string(kLn2) + R"(
  ; ewma = prev + alpha*(nll - prev)
  global_load_dword v15, v6, s6
  s_waitcnt 0
  v_sub_f32 v16, v12, v15
  v_mul_f32 v16, v16, s7
  v_add_f32 v15, v15, v16
  global_store_dword v15, v6, s6
  ; publish {flag, score}
  global_store_dword v15, v6, s9, 4
  v_mov_b32 v17, s8
  v_cmp_gt_f32 vcc, v15, v17
  v_cndmask_b32 v18, 0, 1
  global_store_dword v18, v6, s9
  s_mov_b64 exec, s18
  s_endpgm
)";
  return assemble(src);
}

}  // namespace rtad::ml::kernels
