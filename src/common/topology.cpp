#include "common/topology.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#if defined(__linux__)
#include <sched.h>
#endif

namespace fasted {

namespace {

// Reads one sysfs file; empty string on any failure (missing sysfs inside
// minimal containers must fall through to the single-domain layout).
std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string text;
  std::getline(in, text);
  return text;
}

}  // namespace

std::vector<int> Topology::parse_cpulist(const std::string& text) {
  std::vector<int> cpus;
  const char* p = text.c_str();
  while (*p != '\0' && *p != '\n') {
    char* end = nullptr;
    const long lo = std::strtol(p, &end, 10);
    if (end == p || lo < 0) break;
    long hi = lo;
    p = end;
    if (*p == '-') {
      ++p;
      hi = std::strtol(p, &end, 10);
      if (end == p || hi < lo) break;
      p = end;
    }
    for (long c = lo; c <= hi; ++c) cpus.push_back(static_cast<int>(c));
    if (*p == ',') ++p;
  }
  return cpus;
}

std::optional<Topology> Topology::parse_spec(const std::string& spec) {
  char* end = nullptr;
  const long domains = std::strtol(spec.c_str(), &end, 10);
  if (end == spec.c_str() || domains < 1) return std::nullopt;
  long per = 0;
  if (*end == 'x' || *end == 'X') {
    const char* q = end + 1;
    per = std::strtol(q, &end, 10);
    if (end == q || per < 0) return std::nullopt;
  }
  if (*end != '\0') return std::nullopt;
  return synthetic(static_cast<std::size_t>(domains),
                   static_cast<std::size_t>(per));
}

Topology Topology::custom(std::vector<ExecutionDomain> domains) {
  Topology topo;
  topo.synthetic_ = true;
  topo.domains_ = std::move(domains);
  if (topo.domains_.empty()) topo.domains_.assign(1, ExecutionDomain{});
  return topo;
}

Topology Topology::synthetic(std::size_t domains, std::size_t cpus_per_domain) {
  Topology topo;
  topo.synthetic_ = true;
  topo.domains_.resize(std::max<std::size_t>(domains, 1));
  if (cpus_per_domain > 0) {
    int cpu = 0;
    for (ExecutionDomain& d : topo.domains_) {
      for (std::size_t c = 0; c < cpus_per_domain; ++c) {
        d.cpus.push_back(cpu++);
      }
    }
  }
  return topo;
}

Topology Topology::detect() {
  if (const char* env = std::getenv("FASTED_TOPOLOGY")) {
    if (auto parsed = parse_spec(env)) return *parsed;
    std::fprintf(stderr,
                 "fasted: ignoring malformed FASTED_TOPOLOGY=\"%s\" "
                 "(expected \"DxC\" or \"D\")\n",
                 env);
  }

  Topology topo;
#if defined(__linux__)
  std::error_code ec;
  const std::filesystem::path nodes("/sys/devices/system/node");
  if (std::filesystem::is_directory(nodes, ec)) {
    std::vector<std::pair<int, std::vector<int>>> found;
    for (const auto& entry :
         std::filesystem::directory_iterator(nodes, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("node", 0) != 0) continue;
      char* end = nullptr;
      const long id = std::strtol(name.c_str() + 4, &end, 10);
      if (end == name.c_str() + 4 || *end != '\0') continue;
      auto cpus = parse_cpulist(read_file(entry.path() / "cpulist"));
      if (cpus.empty()) continue;  // memory-only nodes are not domains
      found.emplace_back(static_cast<int>(id), std::move(cpus));
    }
    std::sort(found.begin(), found.end());
    for (auto& [id, cpus] : found) {
      ExecutionDomain d;
      d.node = id;
      d.cpus = std::move(cpus);
      topo.domains_.push_back(std::move(d));
    }
  }
#endif
  if (topo.domains_.size() <= 1) {
    // 0 or 1 populated nodes: the flat layout.  No cpu list on purpose —
    // pinning a single-domain pool would only fight the OS scheduler.
    topo.domains_.assign(1, ExecutionDomain{});
  }
  return topo;
}

bool Topology::pin_current_thread(const ExecutionDomain& domain) {
  if (domain.cpus.empty()) return false;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : domain.cpus) {
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  if (sched_setaffinity(0, sizeof(set), &set) == 0) return true;
#endif
  // Restricted cpusets (containers, taskset) and non-Linux hosts land here:
  // warn once, keep running unpinned — placement is a hint, not a contract.
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "fasted: warning: could not pin worker to its execution "
                 "domain (restricted cpuset?); continuing unpinned\n");
  }
  return false;
}

void* DomainArena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  for (;;) {
    std::size_t grow = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!blocks_.empty()) {
        Block& block = blocks_.back();
        // Align the absolute address (operator new[] only guarantees
        // fundamental alignment on the block base).
        const auto base = reinterpret_cast<std::uintptr_t>(block.data.get());
        const std::size_t at =
            ((base + block.used + align - 1) / align) * align - base;
        if (at + bytes <= block.size) {
          block.used = at + bytes;
          return block.data.get() + at;
        }
      }
      grow = std::max(next_block_, bytes + align);
      next_block_ = grow * 2;
    }
    // Build and commit the fresh block OUTSIDE the arena lock: the commit
    // function may submit a pool job (the first-touch pass), and holding
    // the lock across it could deadlock against a pool worker allocating
    // scratch.  A racing allocator may push its own block first — the
    // loser's block simply becomes the new bump target and the loop
    // retries; the waste is bounded by one block per race.
    Block block;
    // Default-init (for_overwrite): the pages stay untouched until `commit`
    // zeroes them, so physical placement follows the committing thread.
    block.data = std::make_unique_for_overwrite<std::byte[]>(grow);
    block.size = grow;
    if (commit_ != nullptr) {
      commit_(block.data.get(), grow, ctx_);
    } else {
      std::memset(block.data.get(), 0, grow);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    blocks_.push_back(std::move(block));
  }
}

std::size_t DomainArena::bytes_reserved() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

}  // namespace fasted
