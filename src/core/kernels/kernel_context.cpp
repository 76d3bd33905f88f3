#include "core/kernels/kernel_context.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

namespace fasted::kernels {

namespace {

// The compiled-in variant table, ascending capability.  `get` applies the
// build + runtime gates (nullptr when this process cannot run the variant).
struct Variant {
  const char* name;
  const RzDotKernel* (*get)();
};

const RzDotKernel* get_scalar() { return &rz_dot_scalar(); }

constexpr Variant kVariants[] = {
    {"scalar", &get_scalar},
    {"avx2", &rz_dot_avx2},
    {"avx512", &rz_dot_avx512},
};

bool is_auto(const std::string& selection) {
  return selection.empty() || selection == "auto";
}

// A selection naming a variant this CPU cannot run falls back to the best
// one — warned once per distinct name, so engines built per request do not
// spam stderr.
void warn_selection_fallback(const std::string& name, const char* best) {
  static std::mutex mu;
  static auto* warned = new std::set<std::string>();  // leaked, like the registry
  std::lock_guard<std::mutex> lock(mu);
  if (!warned->insert(name).second) return;
  std::fprintf(stderr,
               "fasted: kernel selection \"%s\" is not a supported variant "
               "on this CPU; using %s instead\n",
               name.c_str(), best);
}

}  // namespace

KernelRegistry::KernelRegistry() {
  for (const Variant& v : kVariants) {
    if (const RzDotKernel* k = v.get()) supported_.push_back(k);
  }
  const char* env = std::getenv("FASTED_RZ_KERNEL");
  if (env != nullptr && !is_auto(env)) {
    env_pin_ = find(env);
    if (env_pin_ == nullptr) {
      // Warn loudly so a pinned run is never silently attributed to the
      // wrong kernel, then resolve as if unset.
      std::fprintf(stderr,
                   "fasted: FASTED_RZ_KERNEL=\"%s\" is not a supported "
                   "variant on this CPU; ignoring it\n",
                   env);
    }
  }
}

const KernelRegistry& KernelRegistry::global() {
  // Leaked: kernel references handed out (and held by engines) must
  // outlive every static destructor, exactly like obs::Registry.
  static const KernelRegistry* const registry = new KernelRegistry();
  return *registry;
}

const RzDotKernel* KernelRegistry::find(const std::string& name) const {
  for (const RzDotKernel* k : supported_) {
    if (name == k->name) return k;
  }
  return nullptr;
}

const RzDotKernel& KernelRegistry::resolve(const std::string& selection) const {
  if (env_pin_ != nullptr) return *env_pin_;
  if (is_auto(selection)) return best();
  if (const RzDotKernel* k = find(selection)) return *k;
  warn_selection_fallback(selection, best().name);
  return best();
}

bool kernel_selection_known(const std::string& selection) {
  if (is_auto(selection)) return true;
  for (const Variant& v : kVariants) {
    if (selection == v.name) return true;
  }
  return false;
}

KernelContext KernelContext::resolve(const std::string& selection,
                                     const ThreadPool& /*pool*/) {
  return KernelContext(KernelRegistry::global().resolve(selection));
}

}  // namespace fasted::kernels
