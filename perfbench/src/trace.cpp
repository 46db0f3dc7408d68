#include "trace.hpp"

#include <set>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

/// The calling thread's log for the tracer it last recorded into.
struct CurrentLog {
  std::uint64_t tracer_id = 0;
  ThreadLog* log = nullptr;
};
thread_local CurrentLog t_current;

/// Span names built at run time ("tiers.ram.read") need static storage.
const char* intern(const std::string& name) {
  static std::mutex mutex;
  static std::set<std::string> names;
  const std::scoped_lock lock(mutex);
  return names.insert(name).first->c_str();
}

/// MB as the program counts them (JobStats, device charges): 2^20 bytes.
double mb_of(const TracedTransport::Bytes& bytes) {
  return static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
}

void write_json_string(std::ostream& out, const char* s) {
  out << '"';
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out << '\\';
    out << *s;
  }
  out << '"';
}

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kRuntime:
      return "runtime";
    case Layer::kCore:
      return "core";
    case Layer::kNet:
      return "net";
    case Layer::kTiers:
      return "tiers";
  }
  return "?";
}

Tracer::Tracer()
    : id_(g_next_tracer_id.fetch_add(1)), origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

ThreadLog& Tracer::log() {
  if (t_current.tracer_id != id_) {
    const std::scoped_lock lock(mutex_);
    auto log = std::make_unique<ThreadLog>();
    log->thread = static_cast<std::uint32_t>(logs_.size());
    t_current = CurrentLog{id_, log.get()};
    logs_.push_back(std::move(log));
  }
  return *t_current.log;
}

std::int32_t Tracer::begin(const char* name, Layer layer, std::int64_t sample) {
  ThreadLog& log = this->log();
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = now_ns();
  span.sample = sample;
  if (!log.open.empty()) {
    span.parent = log.open.back();
    if (span.sample < 0) span.sample = log.spans[static_cast<std::size_t>(span.parent)].sample;
  }
  const auto handle = static_cast<std::int32_t>(log.spans.size());
  log.spans.push_back(span);
  log.open.push_back(handle);
  return handle;
}

void Tracer::end(std::int32_t handle, double mb) {
  ThreadLog& log = this->log();
  Span& span = log.spans[static_cast<std::size_t>(handle)];
  span.end_ns = now_ns();
  span.mb = mb;
  log.open.pop_back();
}

void Tracer::mark_rank_thread() { log().rank_thread = true; }

void Tracer::write_chrome_json(std::ostream& out, const std::string& label) const {
  const std::scoped_lock lock(mutex_);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":";
  write_json_string(out, label.c_str());
  out << "},\"traceEvents\":[";
  bool first = true;
  for (const auto& log : logs_) {
    out << (first ? "" : ",") << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << log->thread
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << (log->rank_thread ? "rank" : "worker") << "-" << log->thread << "\"}}";
    first = false;
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Span& span = log->spans[i];
      if (span.end_ns < 0) continue;
      out << ",{\"ph\":\"X\",\"pid\":1,\"tid\":" << log->thread << ",\"name\":";
      write_json_string(out, span.name);
      out << ",\"cat\":\"" << layer_name(span.layer) << "\",\"ts\":"
          << static_cast<double>(span.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) / 1e3
          << ",\"args\":{\"span\":" << i << ",\"cause\":" << span.parent
          << ",\"sample\":" << span.sample << ",\"mb\":" << span.mb << "}}";
    }
  }
  out << "]}\n";
}

// ---------------------------------------------------------------------------
// TracedTransport

std::vector<TracedTransport::Bytes> TracedTransport::allgather(Bytes local) {
  SpanScope span(tracer_, "net.allgather", Layer::kNet);
  return inner_.allgather(std::move(local));
}

void TracedTransport::barrier() {
  {
    SpanScope span(tracer_, "net.barrier", Layer::kNet);
    inner_.barrier();
  }
  barrier_ends_.push_back(std::chrono::steady_clock::now());
  if (barrier_ends_.size() == stop_after_) throw SetupComplete{};
}

void TracedTransport::set_serve_handler(ServeHandler handler) {
  if (!handler || tracer_ == nullptr) {
    inner_.set_serve_handler(std::move(handler));
    return;
  }
  inner_.set_serve_handler(
      [tracer = tracer_, handler = std::move(handler)](std::uint64_t id) -> std::optional<Bytes> {
        SpanScope span(tracer, "net.serve", Layer::kNet, static_cast<std::int64_t>(id));
        auto bytes = handler(id);
        if (bytes.has_value()) span.set_mb(mb_of(*bytes));
        return bytes;
      });
}

std::optional<TracedTransport::Bytes> TracedTransport::fetch_sample(int peer,
                                                                    std::uint64_t id) {
  SpanScope span(tracer_, "net.fetch", Layer::kNet, static_cast<std::int64_t>(id));
  auto bytes = inner_.fetch_sample(peer, id);
  // A miss is recorded with mb = -1 so misses are countable from spans.
  span.set_mb(bytes.has_value() ? mb_of(*bytes) : -1.0);
  return bytes;
}

int TracedTransport::pfs_adjust(int delta) {
  const TimePoint now = std::chrono::steady_clock::now();
  const int gamma = inner_.pfs_adjust(delta);
  const std::scoped_lock lock(pfs_mutex_);
  ++pfs_adjusts_;
  if (gamma > peak_gamma_) peak_gamma_ = gamma;
  if (pfs_outstanding_ == 0 && delta > 0) pfs_since_ = now;
  pfs_outstanding_ += delta;
  if (pfs_outstanding_ == 0 && delta < 0) {
    pfs_wait_s_ += std::chrono::duration<double>(now - pfs_since_).count();
  }
  return gamma;
}

TracedTransport::Counters TracedTransport::counters() const {
  Counters counters;
  counters.watermarks = watermarks_.load(std::memory_order_relaxed);
  const std::scoped_lock lock(pfs_mutex_);
  counters.pfs_adjusts = pfs_adjusts_;
  counters.pfs_wait_s = pfs_wait_s_;
  counters.peak_gamma = peak_gamma_;
  return counters;
}

// ---------------------------------------------------------------------------
// Device decorators

TracedTier::TracedTier(std::unique_ptr<nopfs::tiers::TierDevice> inner, Tracer& tracer)
    : inner_(std::move(inner)),
      tracer_(tracer),
      read_span_(intern("tiers." + inner_->name() + ".read")),
      write_span_(intern("tiers." + inner_->name() + ".write")) {}

void TracedTier::read(double mb) {
  SpanScope span(&tracer_, read_span_, Layer::kTiers);
  span.set_mb(mb);
  inner_->read(mb);
}

void TracedTier::write(double mb) {
  SpanScope span(&tracer_, write_span_, Layer::kTiers);
  span.set_mb(mb);
  inner_->write(mb);
}

void TracedNic::transfer(double mb) {
  SpanScope span(&tracer_, "tiers.nic.transfer", Layer::kTiers);
  span.set_mb(mb);
  inner_->transfer(mb);
}

void trace_devices(nopfs::tiers::WorkerDevices& devices, Tracer& tracer) {
  for (auto& tier : devices.tiers) {
    tier = std::make_unique<TracedTier>(std::move(tier), tracer);
  }
  devices.staging = std::make_unique<TracedTier>(std::move(devices.staging), tracer);
  devices.nic = std::make_unique<TracedNic>(std::move(devices.nic), tracer);
}

}  // namespace perfbench
