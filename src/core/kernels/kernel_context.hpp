// Explicit kernel dispatch: the registry of rz_dot backends and the
// per-domain context the join executor threads through every layer.
//
// Historically the kernel was a process-global: a lazy dispatch function
// pinned the widest supported variant (or FASTED_RZ_KERNEL), and a mutable
// override let benchmarks re-pin it — racy under concurrent services, and
// blind to heterogeneous machines where different execution domains support
// different ISAs (big.LITTLE, mixed-ISA fleets).  This header replaces the
// global with two explicit pieces:
//
//   KernelRegistry   the immutable process-wide table of compiled-in
//                    variants, built ONCE (a leaked singleton, like
//                    obs::Registry) with the runtime CPU gates and the
//                    FASTED_RZ_KERNEL parse folded in.  Nothing in it is
//                    mutable after construction, so concurrent services
//                    cannot interfere.
//   KernelContext    one resolved kernel PER EXECUTION DOMAIN, constructed
//                    from a selection string + the pool's per-domain
//                    feature probes and passed explicitly to execute_join.
//                    Tests build scoped contexts directly; nothing is
//                    pinned behind anyone's back.
//
// Selection strings (FastedConfig::rz_kernel, fasted_cli --kernel):
//   "auto" (or "")      every domain gets the widest variant its own pinned
//                       workers support (ThreadPool::domain_features).
//   "scalar"            one name pins every domain.
//   "scalar,avx2"       a comma list assigns entry d to domain d (modulo
//                       the list length) — heterogeneous per-domain
//                       assignments, expressible through the config
//                       even on homogeneous machines.
// A selected name this build or CPU cannot run warns once per name on
// stderr and falls back to that domain's best — a pinned run is never
// silently attributed to the wrong kernel.  FASTED_RZ_KERNEL force-pins
// every domain over any selection (the CI scalar leg and tests use it).
//
// Kernel choice is pure execution policy: every variant reproduces the
// scalar RZ chain bit-for-bit (rz_dot.hpp), so any assignment — including
// mixed per-domain ones — yields bit-identical join results.  The
// heterogeneous-dispatch property tests pin exactly this.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/topology.hpp"
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

  // The widest variant the whole process supports.
  const RzDotKernel& best() const { return *supported_.back(); }

  // The widest supported variant whose ISA requirements `f` meets — the
  // per-domain resolution primitive (f comes from the domain's own pinned
  // workers).  Scalar always qualifies.
  const RzDotKernel& best_for(const CpuFeatures& f) const;

  // The FASTED_RZ_KERNEL force-pin, parsed once at registry construction;
  // nullptr when unset (or named an unsupported variant, which warned).
  const RzDotKernel* env_pin() const { return env_pin_; }

  // True iff `name` is a compiled-in variant name ("scalar", "avx2",
  // "avx512") — independent of what this CPU supports — or a retired one
  // ("avx512fp16"), which older schedules and scripts still name: those
  // load and fall back to the per-domain best with the one-time warning.
  static bool known_name(const std::string& name);

 private:
  KernelRegistry();

  std::vector<const RzDotKernel*> supported_;
  const RzDotKernel* env_pin_ = nullptr;
};

// True iff `selection` is syntactically valid: empty, "auto", a known
// variant name, or a comma list of those.  FastedConfig::validate and the
// CLI use this — an unknown name should fail loudly up front, not warn at
// join time.
bool kernel_selection_known(const std::string& selection);

class KernelContext {
 public:
  // Scoped explicit context (tests): entry d serves domain d, modulo size.
  // At least one kernel is required.
  explicit KernelContext(std::vector<const RzDotKernel*> per_domain);

  // Resolves `selection` (see file comment) against the pool's per-domain
  // feature probes.  Precedence per domain: FASTED_RZ_KERNEL force-pin,
  // then the selection entry, then the domain's best.
  static KernelContext resolve(const std::string& selection,
                               const ThreadPool& pool);

  // The kernel serving `domain` (modulo the context's size, matching the
  // executor's entry.domain % domain_count routing).
  const RzDotKernel& kernel(std::size_t domain) const {
    return *per_domain_[domain % per_domain_.size()];
  }

  std::size_t domain_count() const { return per_domain_.size(); }

 private:
  std::vector<const RzDotKernel*> per_domain_;
};

}  // namespace fasted::kernels
