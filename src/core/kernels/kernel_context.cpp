#include "core/kernels/kernel_context.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace fasted::kernels {

namespace {

// The compiled-in variant table, ascending capability.  `get` applies the
// build + runtime gates (nullptr when this process cannot run the variant);
// `meets` applies a DOMAIN's probed features on top — a variant the process
// main thread supports may still be refused for a domain whose pinned
// workers lack the ISA.
struct Variant {
  const char* name;
  const RzDotKernel* (*get)();
  bool (*meets)(const CpuFeatures&);
};

const RzDotKernel* get_scalar() { return &rz_dot_scalar(); }

constexpr Variant kVariants[] = {
    {"scalar", &get_scalar, [](const CpuFeatures&) { return true; }},
    {"avx2", &rz_dot_avx2,
     [](const CpuFeatures& f) { return f.avx2 && f.fma && f.f16c; }},
    {"avx512", &rz_dot_avx512, [](const CpuFeatures& f) { return f.avx512f; }},
};

// Variants that no longer exist.  Selections naming them stay valid so
// configs and scripts that name them keep working; they resolve like any
// unsupported name (warn once, fall back to the per-domain best).
constexpr const char* kRetired[] = {"avx512fp16"};

// A selection naming a variant this build/CPU cannot run falls back to the
// per-domain best — once per distinct name, so a selection replayed across
// thousands of serves does not spam stderr.
void warn_selection_fallback(const std::string& name) {
  static std::mutex mu;
  static auto* warned = new std::set<std::string>();  // leaked, like the registry
  std::lock_guard<std::mutex> lock(mu);
  if (!warned->insert(name).second) return;
  std::fprintf(stderr,
               "fasted: kernel selection \"%s\" is not a supported variant "
               "on this CPU; using the per-domain best instead\n",
               name.c_str());
}

// Splits a comma list, trimming blanks; "" and "auto" yield no tokens
// (pure auto selection).
std::vector<std::string> split_selection(const std::string& selection) {
  std::vector<std::string> tokens;
  std::string cur;
  const auto flush = [&] {
    const std::size_t b = cur.find_first_not_of(" \t");
    if (b == std::string::npos) {
      cur.clear();
      return;
    }
    const std::size_t e = cur.find_last_not_of(" \t");
    tokens.push_back(cur.substr(b, e - b + 1));
    cur.clear();
  };
  for (const char c : selection) {
    if (c == ',') {
      flush();
    } else {
      cur.push_back(c);
    }
  }
  flush();
  if (tokens.size() == 1 && tokens.front() == "auto") tokens.clear();
  return tokens;
}

}  // namespace

KernelRegistry::KernelRegistry() {
  for (const Variant& v : kVariants) {
    if (const RzDotKernel* k = v.get()) supported_.push_back(k);
  }
  if (const char* env = std::getenv("FASTED_RZ_KERNEL")) {
    env_pin_ = find(env);
    if (env_pin_ == nullptr) {
      // Warn loudly so a pinned run is never silently attributed to the
      // wrong kernel, then auto-select.
      std::fprintf(stderr,
                   "fasted: FASTED_RZ_KERNEL=\"%s\" is not a supported "
                   "variant on this CPU; falling back to auto selection\n",
                   env);
    }
  }
}

const KernelRegistry& KernelRegistry::global() {
  // Leaked: kernel references handed out (and cached in contexts) must
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

const RzDotKernel& KernelRegistry::best_for(const CpuFeatures& f) const {
  const RzDotKernel* best = supported_.front();  // scalar, always present
  for (const Variant& v : kVariants) {
    const RzDotKernel* k = find(v.name);
    if (k != nullptr && v.meets(f)) best = k;  // ascending order: last wins
  }
  return *best;
}

bool KernelRegistry::known_name(const std::string& name) {
  for (const Variant& v : kVariants) {
    if (name == v.name) return true;
  }
  for (const char* retired : kRetired) {
    if (name == retired) return true;
  }
  return false;
}

bool kernel_selection_known(const std::string& selection) {
  for (const std::string& tok : split_selection(selection)) {
    if (tok != "auto" && !KernelRegistry::known_name(tok)) return false;
  }
  return true;
}

KernelContext::KernelContext(std::vector<const RzDotKernel*> per_domain)
    : per_domain_(std::move(per_domain)) {
  FASTED_CHECK_MSG(!per_domain_.empty(),
                   "a kernel context needs at least one kernel");
  for (const RzDotKernel* k : per_domain_) {
    FASTED_CHECK_MSG(k != nullptr, "null kernel in kernel context");
  }
}

KernelContext KernelContext::resolve(const std::string& selection,
                                     const ThreadPool& pool) {
  const KernelRegistry& reg = KernelRegistry::global();
  const std::size_t ndom = pool.domain_count();
  std::vector<const RzDotKernel*> per_domain(ndom, nullptr);
  if (const RzDotKernel* pin = reg.env_pin()) {
    // FASTED_RZ_KERNEL force-pins every domain over any selection: the
    // test/CI escape hatch keeps working without any mutable state.
    for (const RzDotKernel*& k : per_domain) k = pin;
    return KernelContext(std::move(per_domain));
  }
  const std::vector<std::string> tokens = split_selection(selection);
  for (std::size_t d = 0; d < ndom; ++d) {
    const RzDotKernel* k = nullptr;
    if (!tokens.empty()) {
      const std::string& want = tokens[d % tokens.size()];
      if (want != "auto") {
        k = reg.find(want);
        if (k == nullptr) warn_selection_fallback(want);
      }
    }
    per_domain[d] =
        k != nullptr ? k : &reg.best_for(pool.domain_features(d));
  }
  return KernelContext(std::move(per_domain));
}

}  // namespace fasted::kernels
