#include "serve/batch_gateway.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fasted::serve {

namespace {

std::uint64_t duration_ns(std::chrono::steady_clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d);
  return ns.count() > 0 ? static_cast<std::uint64_t>(ns.count()) : 0;
}

service::PhaseLatency phase_latency(const char* name,
                                    const obs::ConcurrentHistogram& hist) {
  const obs::LatencyHistogram h = hist.snapshot();
  service::PhaseLatency out;
  out.phase = name;
  out.count = h.count();
  out.p50_ns = h.quantile_ns(0.50);
  out.p95_ns = h.quantile_ns(0.95);
  out.p99_ns = h.quantile_ns(0.99);
  out.max_ns = h.max_ns();
  out.mean_ns = h.mean_ns();
  return out;
}

}  // namespace

const BatchGateway::Response& BatchGateway::Ticket::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return ready_; });
  return response_;
}

bool BatchGateway::Ticket::ready() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ready_;
}

BatchGateway::BatchGateway(std::shared_ptr<service::JoinService> service,
                           GatewayOptions options)
    : service_(std::move(service)), options_(options),
      ring_(options.ring_capacity) {
  FASTED_CHECK_MSG(service_ != nullptr, "BatchGateway needs a JoinService");
  FASTED_CHECK_MSG(options_.window_max_requests >= 1,
                   "window must admit at least one request");
  corpus_dims_ = service_->sharded().dims();
  if (options_.start) start();
}

BatchGateway::~BatchGateway() { stop(); }

void BatchGateway::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

void BatchGateway::stop() {
  const bool already = stop_.exchange(true, std::memory_order_acq_rel);
  wake_cv_.notify_all();
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  } else if (!already && !running_.load(std::memory_order_acquire)) {
    // Never-started gateway: requests queued in the ring still deserve an
    // answer — drain them inline (the loop sees stop_ and exits when empty).
    dispatcher_loop();
  }
}

BatchGateway::TicketPtr BatchGateway::submit(TicketPtr ticket) {
  TicketPtr in_ring = ticket;
  if (stop_.load(std::memory_order_acquire) || !ring_.try_push(in_ring)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  wake_cv_.notify_one();
  return ticket;
}

BatchGateway::TicketPtr BatchGateway::try_submit(
    service::EpsQuery request, std::chrono::nanoseconds deadline) {
  FASTED_CHECK_MSG(request.points.rows() > 0, "empty query batch");
  FASTED_CHECK_MSG(request.points.dims() == corpus_dims_,
                   "query/corpus dimensionality mismatch");
  auto ticket = std::make_shared<Ticket>();
  ticket->submitted_at_ = Clock::now();
  const std::chrono::nanoseconds limit =
      deadline.count() > 0 ? deadline : options_.default_deadline;
  ticket->deadline_ = limit.count() > 0 ? ticket->submitted_at_ + limit
                                        : Clock::time_point::max();
  ticket->is_knn_ = false;
  ticket->eps_request_ = std::move(request);
  return submit(std::move(ticket));
}

BatchGateway::TicketPtr BatchGateway::try_submit(
    service::KnnQuery request, std::chrono::nanoseconds deadline) {
  FASTED_CHECK_MSG(request.points.rows() > 0, "empty query batch");
  FASTED_CHECK_MSG(request.points.dims() == corpus_dims_,
                   "query/corpus dimensionality mismatch");
  FASTED_CHECK_MSG(request.k >= 1, "need k >= 1");
  auto ticket = std::make_shared<Ticket>();
  ticket->submitted_at_ = Clock::now();
  const std::chrono::nanoseconds limit =
      deadline.count() > 0 ? deadline : options_.default_deadline;
  ticket->deadline_ = limit.count() > 0 ? ticket->submitted_at_ + limit
                                        : Clock::time_point::max();
  ticket->is_knn_ = true;
  ticket->knn_request_ = std::move(request);
  return submit(std::move(ticket));
}

void BatchGateway::dispatcher_loop() {
  std::vector<TicketPtr> window;
  for (;;) {
    TicketPtr first;
    if (!ring_.try_pop(first)) {
      if (stop_.load(std::memory_order_acquire)) {
        if (!ring_.try_pop(first)) break;  // drained: exit
      } else {
        std::unique_lock<std::mutex> lock(wake_mutex_);
        wake_cv_.wait_for(lock, std::chrono::microseconds(100));
        continue;
      }
    }
    window.clear();
    {
      // The admission window: open on the first pop, close on the size
      // trigger (window_max_requests), the time trigger (window_wait after
      // opening), or shutdown.
      obs::PhaseTimer fill(phases_->window_fill);
      obs::TraceSpan fill_span("window_fill", "gateway");
      window.push_back(std::move(first));
      const Clock::time_point close_at = Clock::now() + options_.window_wait;
      while (window.size() < options_.window_max_requests) {
        TicketPtr next;
        if (ring_.try_pop(next)) {
          window.push_back(std::move(next));
          continue;
        }
        if (stop_.load(std::memory_order_acquire)) break;
        const Clock::time_point now = Clock::now();
        if (now >= close_at) break;
        std::unique_lock<std::mutex> lock(wake_mutex_);
        wake_cv_.wait_until(
            lock, std::min(close_at, now + std::chrono::microseconds(100)));
      }
    }
    dispatch_window(window);
  }
}

void BatchGateway::dispatch_window(std::vector<TicketPtr>& window) {
  windows_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = max_window_.load(std::memory_order_relaxed);
  while (window.size() > seen &&
         !max_window_.compare_exchange_weak(seen, window.size(),
                                            std::memory_order_relaxed)) {
  }
  obs::TraceSpan span("window_dispatch", "gateway");
  static obs::ConcurrentCounter& windows_counter =
      obs::Registry::global().counter("gateway.windows");
  static obs::ConcurrentCounter& coalesced_counter =
      obs::Registry::global().counter("gateway.coalesced_requests");

  // Deadline triage: expired requests are reported and dropped here — they
  // never join the strip, so one stale client cannot block the window.
  const Clock::time_point now = Clock::now();
  std::vector<TicketPtr> eps_live;
  std::vector<TicketPtr> knn_live;
  for (TicketPtr& ticket : window) {
    phases_->admission_wait.record(duration_ns(now - ticket->submitted_at_));
    if (now > ticket->deadline_) {
      expired_.fetch_add(1, std::memory_order_relaxed);
      Response response;
      response.state = RequestState::kExpired;
      complete(ticket, std::move(response));
      continue;
    }
    (ticket->is_knn_ ? knn_live : eps_live).push_back(std::move(ticket));
  }
  windows_counter.add(1);
  coalesced_counter.add(eps_live.size() + knn_live.size());
  if (!eps_live.empty()) serve_eps(eps_live);
  if (!knn_live.empty()) serve_knn(knn_live);
}

void BatchGateway::serve_eps(std::vector<TicketPtr>& tickets) {
  std::vector<service::EpsQuery> requests;
  requests.reserve(tickets.size());
  for (TicketPtr& ticket : tickets) {
    requests.push_back(std::move(ticket->eps_request_));
  }
  std::vector<QueryJoinOutput> outputs;
  try {
    obs::PhaseTimer drain(phases_->coalesced_drain);
    obs::TraceSpan span("coalesced_drain", "gateway");
    outputs = service_->eps_join_coalesced(requests);
  } catch (const std::exception& e) {
    for (const TicketPtr& ticket : tickets) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      Response response;
      response.state = RequestState::kFailed;
      response.error = e.what();
      complete(ticket, std::move(response));
    }
    return;
  }
  obs::PhaseTimer demux(phases_->demux);
  obs::TraceSpan span("demux", "gateway");
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    served_.fetch_add(1, std::memory_order_relaxed);
    Response response;
    response.state = RequestState::kDone;
    response.eps = std::move(outputs[i]);
    complete(tickets[i], std::move(response));
  }
}

void BatchGateway::serve_knn(std::vector<TicketPtr>& tickets) {
  // Coalesce by k: every group is served as ONE adaptive-knn batch over the
  // concatenated query rows.  Per-query kNN answers are exact regardless of
  // batch composition (adaptive rounds + brute straggler sweep), so the
  // split-out rows are bit-identical to serving each request alone; only
  // the diagnostic `rounds` reflects the shared batch.
  std::map<std::size_t, std::vector<TicketPtr>> by_k;
  for (TicketPtr& ticket : tickets) {
    by_k[ticket->knn_request_.k].push_back(std::move(ticket));
  }
  for (auto& [k, group] : by_k) {
    try {
      service::KnnBatchResult batch;
      {
        obs::PhaseTimer drain(phases_->coalesced_drain);
        obs::TraceSpan span("coalesced_drain", "gateway");
        if (group.size() == 1) {
          batch = service_->knn(group.front()->knn_request_, options_.knn);
        } else {
          std::size_t total = 0;
          for (const TicketPtr& ticket : group) {
            total += ticket->knn_request_.points.rows();
          }
          MatrixF32 strip(total, corpus_dims_);
          std::size_t at = 0;
          for (const TicketPtr& ticket : group) {
            const MatrixF32& pts = ticket->knn_request_.points;
            std::copy_n(pts.row(0), pts.rows() * pts.stride(), strip.row(at));
            at += pts.rows();
          }
          batch = service_->knn(service::KnnQuery{std::move(strip), k},
                                options_.knn);
        }
      }
      obs::PhaseTimer demux(phases_->demux);
      obs::TraceSpan span("demux", "gateway");
      std::size_t row = 0;
      for (const TicketPtr& ticket : group) {
        const std::size_t nq = ticket->knn_request_.points.rows();
        served_.fetch_add(1, std::memory_order_relaxed);
        Response response;
        response.state = RequestState::kDone;
        response.knn.k = k;
        response.knn.rounds = batch.rounds;
        const std::uint32_t* ids = batch.ids.data() + row * k;
        const float* dist = batch.distances.data() + row * k;
        response.knn.ids.assign(ids, ids + nq * k);
        response.knn.distances.assign(dist, dist + nq * k);
        row += nq;
        complete(ticket, std::move(response));
      }
    } catch (const std::exception& e) {
      for (const TicketPtr& ticket : group) {
        failed_.fetch_add(1, std::memory_order_relaxed);
        Response response;
        response.state = RequestState::kFailed;
        response.error = e.what();
        complete(ticket, std::move(response));
      }
    }
  }
}

void BatchGateway::complete(const TicketPtr& ticket, Response&& response) {
  {
    std::lock_guard<std::mutex> lock(ticket->mutex_);
    ticket->response_ = std::move(response);
    ticket->ready_ = true;
  }
  ticket->cv_.notify_all();
}

GatewayStats BatchGateway::stats() const {
  GatewayStats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.expired = expired_.load(std::memory_order_relaxed);
  out.served = served_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.windows = windows_.load(std::memory_order_relaxed);
  out.max_window_requests = max_window_.load(std::memory_order_relaxed);
  out.coalescing_factor =
      out.windows == 0 ? 0.0
                       : static_cast<double>(out.served) /
                             static_cast<double>(out.windows);
  const std::pair<const char*, const obs::ConcurrentHistogram*> phases[] = {
      {"admission_wait", &phases_->admission_wait},
      {"window_fill", &phases_->window_fill},
      {"coalesced_drain", &phases_->coalesced_drain},
      {"demux", &phases_->demux},
  };
  for (const auto& [name, hist] : phases) {
    service::PhaseLatency lat = phase_latency(name, *hist);
    if (lat.count != 0) out.phase_latencies.push_back(lat);
  }
  return out;
}

std::string GatewayStats::json() const {
  std::ostringstream os;
  os << "{\"submitted\":" << submitted << ",\"rejected\":" << rejected
     << ",\"expired\":" << expired << ",\"served\":" << served
     << ",\"failed\":" << failed << ",\"windows\":" << windows
     << ",\"max_window_requests\":" << max_window_requests
     << ",\"coalescing_factor\":" << coalescing_factor;
  os << ",\"phases\":{";
  for (std::size_t i = 0; i < phase_latencies.size(); ++i) {
    const service::PhaseLatency& p = phase_latencies[i];
    if (i != 0) os << ",";
    os << "\"" << p.phase << "\":{\"count\":" << p.count << ",\"mean_ns\":"
       << static_cast<std::uint64_t>(p.mean_ns) << ",\"p50_ns\":" << p.p50_ns
       << ",\"p95_ns\":" << p.p95_ns << ",\"p99_ns\":" << p.p99_ns
       << ",\"max_ns\":" << p.max_ns << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace fasted::serve
