// The rz_dot kernel registry: the compiled-in variants this process can
// run, and the one kernel each engine runs.
//
// An x86 process sees one ISA: __builtin_cpu_supports reads libgcc's
// __cpu_model, which __cpu_indicator_init fills once per process, so every
// thread — pinned or not, in any execution domain — gets the same answer.
// The kernel is therefore resolved once per FastedEngine, at construction
// (FastedEngine::kernel()), and passed explicitly to execute_join and
// query_row_join.  There is no ambient process-global kernel and no
// mutable override: two engines with different selections run side by
// side without interfering.
//
//   KernelRegistry   the immutable process-wide table of compiled-in
//                    variants, built ONCE (a leaked singleton, like
//                    obs::Registry) with the runtime CPU gates and the
//                    FASTED_RZ_KERNEL parse folded in.
//
// Selections (FastedConfig::rz_kernel, fasted_cli --kernel): "auto" (or
// "") for the widest variant this CPU runs, or exactly one of "scalar",
// "avx2", "avx512".  Anything else fails FastedConfig::validate.
// Resolution order: FASTED_RZ_KERNEL (when it names a variant this CPU
// runs; "auto" means no pin), then the selection, then best().  A known
// name this CPU cannot run warns once per name on stderr and falls back to
// best() — a pinned run is never silently attributed to the wrong kernel.
//
// Kernel choice is pure execution policy: every variant reproduces the
// scalar RZ chain bit-for-bit (rz_dot.hpp), so every selection yields
// bit-identical join results.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/kernels/rz_dot.hpp"

namespace fasted {
class ThreadPool;
}

namespace fasted::kernels {

class KernelRegistry {
 public:
  // The leaked singleton: variant gates and FASTED_RZ_KERNEL are evaluated
  // exactly once, on first use.
  static const KernelRegistry& global();

  // Every variant this build + CPU can run, in ascending capability order
  // (scalar first, the widest last).
  const std::vector<const RzDotKernel*>& supported() const {
    return supported_;
  }

  // The supported variant named `name`; nullptr when unknown or not
  // runnable here.
  const RzDotKernel* find(const std::string& name) const;

  // The widest variant this process runs.
  const RzDotKernel& best() const { return *supported_.back(); }

  // The FASTED_RZ_KERNEL pin, parsed once at registry construction;
  // nullptr when unset, "auto", or naming a variant this CPU cannot run
  // (which warned).
  const RzDotKernel* env_pin() const { return env_pin_; }

  // The kernel an engine configured with `selection` runs, in the
  // resolution order above.
  const RzDotKernel& resolve(const std::string& selection) const;

 private:
  KernelRegistry();

  std::vector<const RzDotKernel*> supported_;
  const RzDotKernel* env_pin_ = nullptr;
};

// True iff `selection` is "", "auto" or a compiled-in variant name —
// independent of what this CPU runs.  FastedConfig::validate and the CLI
// use this: an unknown name fails loudly up front.
bool kernel_selection_known(const std::string& selection);

// The benchmark's view of the resolved kernel: resolve(selection, pool)
// gives KernelRegistry::resolve(selection) for every domain.
class KernelContext {
 public:
  static KernelContext resolve(const std::string& selection,
                               const ThreadPool& pool);
  const RzDotKernel& kernel(std::size_t /*domain*/) const { return *kernel_; }

 private:
  explicit KernelContext(const RzDotKernel& k) : kernel_(&k) {}
  const RzDotKernel* kernel_;
};

}  // namespace fasted::kernels
