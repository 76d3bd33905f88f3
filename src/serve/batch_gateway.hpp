// BatchGateway: cross-request query coalescing in front of JoinService.
//
// The service serves one request at a time (each drain already saturates
// the shared ThreadPool), so concurrent clients queue on the serve slot and
// every request pays a full corpus traversal for its own small batch.  The
// gateway turns that queue into shared work:
//
//   clients --try_submit--> bounded MPSC admission ring --> dispatcher
//                                                           thread
//     dispatcher: pop first request  -> open an admission window
//                 pop until the window fills (size trigger) or
//                 window_wait elapses (time trigger)
//                 drop requests past their deadline (reported, never served)
//                 eps requests  -> ONE JoinService::eps_join_coalesced drain
//                                  (concatenated query strip, DemuxSink
//                                  routes hits back per request)
//                 knn requests  -> grouped by k, each group concatenated
//                                  into one adaptive-knn batch and split
//                 complete tickets -> clients wake on their Ticket
//
// At a window of B requests the corpus-side traversal (panel staging, tile
// drain fork-join, serve-slot admission) is paid once instead of B times;
// results are bit-identical to serving each request alone (property-tested
// in tests/serve/) because the demux re-imposes each request's own radius
// on eps-independent distances, and knn answers are exact regardless of
// batch composition.
//
// Kernel selection rides through unchanged: the coalesced drain runs on
// the service's engine and its one rz_dot kernel (FastedEngine::kernel()),
// so a gateway-coalesced window is bit-identical to sequential serving
// under any kernel (GatewayCoalescing.* on the FASTED_RZ_KERNEL CI legs).
//
// Backpressure is the ring: try_submit returns nullptr when it is full (or
// the gateway is stopped) — callers see the rejection immediately, nothing
// queues unbounded.  Deadlines are checked at dispatch: an expired request
// is completed as kExpired without joining the strip, so one stale client
// never blocks a window.  Every stage is obs::-instrumented (admission_wait
// / window_fill / coalesced_drain / demux histograms, coalescing-factor in
// GatewayStats and the global registry).

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/fasted.hpp"
#include "core/kernels/mpsc_ring.hpp"
#include "obs/histogram.hpp"
#include "service/join_service.hpp"

namespace fasted::serve {

// Terminal states a submitted request can reach.
enum class RequestState {
  kPending,   // not yet dispatched
  kDone,      // served; the response payload is valid
  kExpired,   // past its deadline at dispatch — dropped, never served
  kFailed,    // the serve raised (e.g. k exceeded the alive corpus)
};

struct GatewayOptions {
  // Admission ring slots (rounded up to a power of two).  A full ring is
  // the backpressure signal: try_submit returns nullptr.
  std::size_t ring_capacity = 256;
  // Window size trigger: dispatch as soon as this many requests are in the
  // window.
  std::size_t window_max_requests = 8;
  // Window time trigger: dispatch at most this long after the window
  // opened, however many requests arrived.
  std::chrono::microseconds window_wait{500};
  // Default per-request deadline measured from submission; zero means
  // requests never expire.  try_submit's deadline parameter overrides.
  std::chrono::nanoseconds default_deadline{0};
  // kNN serving knobs applied to every coalesced knn batch.
  service::KnnOptions knn;
  // Start the dispatcher thread in the constructor.  Tests (and callers
  // staging submissions) can pass false and call start() later; submissions
  // meanwhile queue in the ring until it fills.
  bool start = true;
};

struct GatewayStats {
  std::uint64_t submitted = 0;   // accepted into the ring
  std::uint64_t rejected = 0;    // ring-full / stopped rejections
  std::uint64_t expired = 0;     // deadline drops at dispatch
  std::uint64_t served = 0;      // completed kDone
  std::uint64_t failed = 0;      // completed kFailed
  std::uint64_t windows = 0;     // dispatched admission windows
  std::uint64_t max_window_requests = 0;
  // Requests served per dispatched window — THE gateway number: corpus
  // traversals are paid once per window, so this is the traversal
  // amortization factor.
  double coalescing_factor = 0.0;
  // admission_wait (submit -> dispatch), window_fill (window open ->
  // close), coalesced_drain (the shared service drain), demux (response
  // fan-out + client wakeups).
  std::vector<service::PhaseLatency> phase_latencies;

  std::string json() const;
};

class BatchGateway {
 public:
  struct Response {
    RequestState state = RequestState::kPending;
    // Valid when state == kDone, for the request shape submitted:
    QueryJoinOutput eps;          // eps requests
    service::KnnBatchResult knn;  // knn requests
    std::string error;            // kFailed: what the serve raised
  };

  // A client's handle on one submitted request.  wait() blocks until the
  // dispatcher completes the ticket (served, expired, or failed) and
  // returns the response; the reference stays valid for the ticket's
  // lifetime.  Tickets are shared_ptr-held so a client that gives up never
  // invalidates the dispatcher's side.
  class Ticket {
   public:
    const Response& wait();
    bool ready() const;

   private:
    friend class BatchGateway;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    Response response_;
    bool ready_ = false;
    std::chrono::steady_clock::time_point submitted_at_;
    std::chrono::steady_clock::time_point deadline_;  // max() = none
    bool is_knn_ = false;
    service::EpsQuery eps_request_;
    service::KnnQuery knn_request_;
  };
  using TicketPtr = std::shared_ptr<Ticket>;

  explicit BatchGateway(std::shared_ptr<service::JoinService> service,
                        GatewayOptions options = {});
  ~BatchGateway();  // stop()s

  BatchGateway(const BatchGateway&) = delete;
  BatchGateway& operator=(const BatchGateway&) = delete;

  // Submit a request.  Returns nullptr when the admission ring is full or
  // the gateway has been stopped (the rejection is tallied) — the caller
  // retries or sheds load; nothing ever queues beyond the ring.  A
  // non-zero `deadline` (measured from now) overrides
  // GatewayOptions::default_deadline.  Malformed requests (empty batch,
  // dimensionality mismatch, k out of range) throw CheckError at submit
  // time, before touching the ring.
  TicketPtr try_submit(service::EpsQuery request,
                       std::chrono::nanoseconds deadline = {});
  TicketPtr try_submit(service::KnnQuery request,
                       std::chrono::nanoseconds deadline = {});

  // Start the dispatcher (no-op if already running; see
  // GatewayOptions::start).
  void start();
  // Drain the ring (remaining requests are dispatched in windows as usual)
  // and join the dispatcher.  Idempotent; the destructor calls it.
  void stop();

  GatewayStats stats() const;
  // stats().json() — the CLI's --stats-json "gateway" payload.
  std::string stats_json() const { return stats().json(); }

 private:
  using Clock = std::chrono::steady_clock;

  void dispatcher_loop();
  void dispatch_window(std::vector<TicketPtr>& window);
  void serve_eps(std::vector<TicketPtr>& tickets);
  void serve_knn(std::vector<TicketPtr>& tickets);
  static void complete(const TicketPtr& ticket, Response&& response);
  TicketPtr submit(TicketPtr ticket);

  std::shared_ptr<service::JoinService> service_;
  GatewayOptions options_;
  std::size_t corpus_dims_ = 0;
  kernels::BoundedMpscRing<TicketPtr> ring_;

  // Dispatcher wakeup: submissions notify after pushing.  The notify races
  // the dispatcher's empty-check benignly — every wait is bounded by a
  // short timeout, so a lost wakeup costs at most one poll quantum, never
  // a hang.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> windows_{0};
  std::atomic<std::uint64_t> max_window_{0};

  // Gateway-scoped phase histograms (same per-owner scoping rule as
  // JoinService's PhaseSet: two gateways must not blend tails).
  struct PhaseSet {
    obs::ConcurrentHistogram admission_wait;
    obs::ConcurrentHistogram window_fill;
    obs::ConcurrentHistogram coalesced_drain;
    obs::ConcurrentHistogram demux;
  };
  std::unique_ptr<PhaseSet> phases_ = std::make_unique<PhaseSet>();

  std::thread dispatcher_;  // last: starts after every member is live
};

}  // namespace fasted::serve
