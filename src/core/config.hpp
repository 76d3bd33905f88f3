// FaSTED configuration: the paper's Table 2 parameter set plus one toggle
// per optimization of Sec. 3.3 (the leave-one-out study of Table 5 flips
// these individually).

#pragma once

#include <cstddef>
#include <string>

#include "sim/device_spec.hpp"
#include "sim/l2_model.hpp"

namespace fasted {

struct FastedConfig {
  // --- Table 2: optimized parameters ---
  int block_tile_m = 128;        // points per block tile (rows)
  int block_tile_n = 128;        // query points per block tile (cols)
  int block_tile_k = 64;         // k-slice depth staged in shared memory
  int warp_tile_m = 64;
  int warp_tile_n = 64;
  int warp_tile_k = 16;          // one register k-slice at a time
  int warps_per_block = 4;
  int pipeline_stages = 2;       // two-stage cuda::pipeline
  int blocks_per_sm = 2;         // SM residency
  int dispatch_square = 8;       // 8x8 block-tile dispatch squares (Fig. 4)
  int grid_blocks_factor = 2;    // grid = factor * #SMs = 216 blocks

  // --- Sec. 3.3 optimization toggles (all on = paper configuration) ---
  bool opt_block_tile_ordering = true;  // 3.3.1 square dispatch order
  bool opt_block_tile = true;           // 3.3.2 smem staging shared by warps
  bool opt_memcpy_async = true;         // 3.3.4 async global->smem copies
  bool opt_multistage_pipeline = true;  // 3.3.5 two-stage pipeline
  bool opt_sm_block_residency = true;   // 3.3.6 two blocks per SM
  bool opt_warp_tile = true;            // 3.3.7 64x64x16 warp tile
  bool opt_swizzle = true;              // 3.3.8 XOR swizzled smem layout
  bool opt_smem_alignment = true;       // 3.3.9 __align__(128) smem

  sim::DeviceSpec device = sim::DeviceSpec::a100_pcie();

  // rz_dot kernel selection (core/kernels/kernel_context.hpp): "auto" (or
  // "") runs the widest variant this CPU supports; one name ("scalar",
  // "avx2", "avx512") pins it.  FASTED_RZ_KERNEL pins over this field.
  // Resolved once per FastedEngine.  Execution policy only — every variant
  // is bit-identical.
  std::string rz_kernel = "auto";

  // Derived values.
  sim::DispatchPolicy dispatch_policy() const {
    return opt_block_tile_ordering ? sim::DispatchPolicy::kSquares
                                   : sim::DispatchPolicy::kRowMajor;
  }
  int grid_blocks() const { return grid_blocks_factor * device.sm_count; }
  int residency() const { return opt_sm_block_residency ? blocks_per_sm : 1; }
  int effective_pipeline_stages() const {
    if (!opt_memcpy_async) return 1;  // sync copies cannot be pipelined
    return opt_multistage_pipeline ? pipeline_stages : 1;
  }

  // Warp-tile shape when the 3.3.7 optimization is disabled: every MMA
  // reloads its fragments (no register-level reuse across MMAs).
  int effective_warp_tile_m() const { return opt_warp_tile ? warp_tile_m : 16; }
  int effective_warp_tile_n() const { return opt_warp_tile ? warp_tile_n : 8; }

  // Shared-memory footprint of one block: staged P and Q block fragments,
  // times the pipeline depth (FP16 = 2 bytes).
  std::size_t smem_bytes_per_block() const {
    const std::size_t frag =
        static_cast<std::size_t>(block_tile_m + block_tile_n) *
        static_cast<std::size_t>(block_tile_k) * 2;
    return frag * static_cast<std::size_t>(effective_pipeline_stages());
  }

  // Validates tile divisibility constraints; throws CheckError on misuse.
  void validate() const;

  std::string describe() const;

  static FastedConfig paper_defaults() { return FastedConfig{}; }
};

}  // namespace fasted
