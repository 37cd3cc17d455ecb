#include "obs/trace.hpp"

#include <cmath>
#include <cstring>

#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/syscall.hpp"

namespace sparsetrain::obs {

namespace {

std::int64_t wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer(TracerOptions opts) : opts_(std::move(opts)) {
  const double rate = opts_.sample_rate;
  if (rate >= 1.0) {
    always_ = true;
  } else if (rate > 0.0) {
    // sample iff mix64(seed, id) < rate * 2^64; computed via ldexp to
    // keep the full 64-bit range without overflow at rate -> 1.
    threshold_ = static_cast<std::uint64_t>(std::ldexp(rate, 64));
  }
  if (!opts_.path.empty()) {
    out_ = std::fopen(opts_.path.c_str(), "a");
  }
  pid_ = util::process_id();
  // Span-id salt: distinct per process (pid) and per tracer instance
  // (counter), so concurrent emitters for one trace never mint the same
  // span id even when they share seed and counter sequence.
  static std::atomic<std::uint64_t> instances{0};
  span_salt_ = mix64(static_cast<std::uint64_t>(pid_),
                     instances.fetch_add(1) + fnv1a(opts_.process));
}

Tracer::~Tracer() {
  if (out_ != nullptr) std::fclose(out_);
}

bool Tracer::sample(std::uint64_t trace_id) const {
  if (always_) return true;
  if (threshold_ == 0) return false;
  return mix64(opts_.seed, trace_id) < threshold_;
}

SpanContext Tracer::start_trace() {
  SpanContext ctx;
  ctx.tracer = this;
  std::uint64_t id =
      mix64(opts_.seed, next_.fetch_add(1, std::memory_order_relaxed));
  if (id == 0) id = 1;  // 0 means "no trace" on the wire
  ctx.trace_id = id;
  ctx.span_id = 0;  // root
  ctx.sampled = enabled() && sample(id);
  return ctx;
}

SpanContext Tracer::join(std::uint64_t trace_id, std::uint64_t parent_span) {
  SpanContext ctx;
  ctx.tracer = this;
  ctx.trace_id = trace_id;
  ctx.span_id = parent_span;
  // A trace id on the wire is itself the sampling decision: the edge
  // only propagates ids for traces it sampled.
  ctx.sampled = enabled() && trace_id != 0;
  return ctx;
}

std::uint64_t Tracer::next_id(std::uint64_t trace_id) {
  std::uint64_t id =
      mix64(trace_id ^ span_salt_,
            next_.fetch_add(1, std::memory_order_relaxed));
  if (id == 0) id = 1;
  return id;
}

void Tracer::emit(
    std::uint64_t trace_id, std::uint64_t span_id, std::uint64_t parent_id,
    const char* name, std::int64_t start_us, std::int64_t dur_us,
    const std::vector<std::pair<std::string, std::string>>& attrs) {
  if (out_ == nullptr) return;
  std::string line = "{\"trace\": \"";
  line += hex16(trace_id);
  line += "\", \"span\": \"";
  line += hex16(span_id);
  line += '"';
  if (parent_id != 0) {
    line += ", \"parent\": \"";
    line += hex16(parent_id);
    line += '"';
  }
  line += ", \"name\": \"";
  line += json_escape(name);
  line += "\", \"process\": \"";
  line += json_escape(opts_.process);
  line += "\", \"pid\": ";
  line += std::to_string(pid_);
  line += ", \"start_us\": ";
  line += std::to_string(start_us);
  line += ", \"dur_us\": ";
  line += std::to_string(dur_us < 0 ? 0 : dur_us);
  if (!attrs.empty()) {
    line += ", \"attrs\": {";
    for (std::size_t i = 0; i < attrs.size(); ++i) {
      if (i > 0) line += ", ";
      line += '"';
      line += json_escape(attrs[i].first);
      line += "\": \"";
      line += json_escape(attrs[i].second);
      line += '"';
    }
    line += '}';
  }
  line += "}\n";
  std::lock_guard lock(mu_);
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fflush(out_);
}

Span::Span(const SpanContext& parent, const char* name) {
  if (!parent.active()) return;
  start(parent, name, std::chrono::steady_clock::now());
}

Span::Span(const SpanContext& parent, const char* name,
           std::chrono::steady_clock::time_point start_at) {
  if (!parent.active()) return;
  start(parent, name, start_at);
}

void Span::start(const SpanContext& parent, const char* name,
                 std::chrono::steady_clock::time_point steady_start) {
  tracer_ = parent.tracer;
  trace_ = parent.trace_id;
  parent_ = parent.span_id;
  id_ = tracer_->next_id(trace_);
  name_ = name;
  steady_start_ = steady_start;
  // Wall stamp back-computed from the steady start so retroactive spans
  // (queue wait measured from admission) line up with their children.
  const auto steady_now = std::chrono::steady_clock::now();
  const std::int64_t elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(steady_now -
                                                            steady_start)
          .count();
  start_us_ = wall_now_us() - elapsed_us;
}

void Span::attr(const char* key, std::string value) {
  if (tracer_ == nullptr) return;
  attrs_.emplace_back(key, std::move(value));
}

SpanContext Span::context() const {
  SpanContext ctx;
  if (tracer_ == nullptr) return ctx;  // inactive subtree
  ctx.tracer = tracer_;
  ctx.trace_id = trace_;
  ctx.span_id = id_;
  ctx.sampled = true;
  return ctx;
}

void Span::finish() {
  if (tracer_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  const std::int64_t dur_us =
      std::chrono::duration_cast<std::chrono::microseconds>(end -
                                                            steady_start_)
          .count();
  tracer_->emit(trace_, id_, parent_, name_, start_us_, dur_us, attrs_);
  tracer_ = nullptr;
}

}  // namespace sparsetrain::obs
