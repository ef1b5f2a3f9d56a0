#include "obs/tracing.h"

#include <stdexcept>
#include <utility>

#include "obs/run_info.h"

namespace mecsc::obs {

namespace {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

bool is_lower_hex(const std::string& s) {
  for (const char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

bool all_zero(const std::string& s) {
  return s.find_first_not_of('0') == std::string::npos;
}

}  // namespace

std::string TraceContext::to_traceparent() const {
  return "00-" + trace_id + "-" + span_id + "-" + (sampled ? "01" : "00");
}

std::optional<TraceContext> TraceContext::parse(const std::string& header) {
  // 00-{32 hex}-{16 hex}-{2 hex}, all lowercase, ids not all zero.
  if (header.size() != 55) return std::nullopt;
  if (header[2] != '-' || header[35] != '-' || header[52] != '-') {
    return std::nullopt;
  }
  if (header.compare(0, 2, "00") != 0) return std::nullopt;
  TraceContext ctx;
  ctx.trace_id = header.substr(3, 32);
  ctx.span_id = header.substr(36, 16);
  const std::string flags = header.substr(53, 2);
  if (!is_lower_hex(ctx.trace_id) || !is_lower_hex(ctx.span_id) ||
      !is_lower_hex(flags)) {
    return std::nullopt;
  }
  if (all_zero(ctx.trace_id) || all_zero(ctx.span_id)) return std::nullopt;
  const int low = flags[1] >= 'a' ? flags[1] - 'a' + 10 : flags[1] - '0';
  ctx.sampled = (low & 1) != 0;
  return ctx;
}

TraceContext TraceContext::derive(const std::string& seed, bool sampled) {
  TraceContext ctx;
  ctx.trace_id = fnv1a64_hex(seed + "\x01") + fnv1a64_hex(seed + "\x02");
  ctx.span_id = fnv1a64_hex(seed + "\x03");
  // An all-zero id is invalid per W3C; FNV-1a of a non-empty seed never
  // realistically produces one, but guard anyway so derive() always
  // yields a valid context.
  if (all_zero(ctx.trace_id)) ctx.trace_id.back() = '1';
  if (all_zero(ctx.span_id)) ctx.span_id.back() = '1';
  ctx.sampled = sampled;
  return ctx;
}

bool trace_head_sample(const std::string& trace_id, double rate) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  // Top 53 bits of the hash map exactly onto a double in [0, 1).
  const std::uint64_t hash = fnv1a64(trace_id + "#sample");
  const double unit = static_cast<double>(hash >> 11) * 0x1.0p-53;
  return unit < rate;
}

std::string trace_span_id(const std::string& trace_id, std::uint64_t seq) {
  return fnv1a64_hex(trace_id + "/" + std::to_string(seq));
}

util::JsonValue TraceSpan::to_json() const {
  util::JsonObject o;
  o["name"] = util::JsonValue(name);
  o["span_id"] = util::JsonValue(span_id);
  o["wall_start_ms"] = util::JsonValue(start_ms);
  o["wall_dur_ms"] = util::JsonValue(dur_ms);
  if (!children.empty()) {
    util::JsonArray kids;
    kids.reserve(children.size());
    for (const TraceSpan& child : children) kids.push_back(child.to_json());
    o["children"] = util::JsonValue(std::move(kids));
  }
  return util::JsonValue(std::move(o));
}

std::uint64_t TraceSpan::span_count() const {
  std::uint64_t count = 1;
  for (const TraceSpan& child : children) count += child.span_count();
  return count;
}

util::JsonValue FinishedTrace::summary_json() const {
  util::JsonObject o;
  o["trace_id"] = util::JsonValue(ctx.trace_id);
  o["parent_span_id"] = util::JsonValue(ctx.span_id);
  o["request_id"] = util::JsonValue(request_id);
  o["type"] = util::JsonValue(type);
  o["keep_reason"] = util::JsonValue(keep_reason);
  o["spans"] = util::JsonValue(static_cast<std::size_t>(root.span_count()));
  o["root"] = root.to_json();
  return util::JsonValue(std::move(o));
}

RequestTrace::RequestTrace(TraceContext ctx, const util::Timer& clock,
                           const char* root_name)
    : ctx_(std::move(ctx)), clock_(clock) {
  // Span ids must be unique across *processes* sharing one trace: the
  // router and the backend each open a RequestTrace on the same trace id
  // and both number spans from 0, so hashing (trace_id, seq) alone would
  // collide the two roots. Folding the inbound parent span id into the
  // namespace keeps ids distinct along the whole request chain — each
  // hop's parent differs — while staying a pure function of the context
  // (the determinism contract for trace artifacts).
  span_namespace_ = ctx_.trace_id + "/" + ctx_.span_id;
  root_.name = root_name;
  root_.span_id = trace_span_id(span_namespace_, next_seq_++);
  stack_.push_back(&root_);
}

const std::string& RequestTrace::current_span_id() const {
  return stack_.back()->span_id;
}

void RequestTrace::begin(const char* name) {
  TraceSpan* parent = stack_.back();
  parent->children.push_back(TraceSpan{});
  TraceSpan& span = parent->children.back();
  span.name = name;
  span.span_id = trace_span_id(span_namespace_, next_seq_++);
  span.start_ms = clock_.elapsed_ms();
  stack_.push_back(&span);
}

void RequestTrace::end() {
  if (stack_.size() <= 1) return;  // root closes in finish()
  TraceSpan* span = stack_.back();
  span->dur_ms = clock_.elapsed_ms() - span->start_ms;
  stack_.pop_back();
}

void RequestTrace::add_complete(const char* name, double start_ms,
                                double dur_ms) {
  TraceSpan* parent = stack_.back();
  parent->children.push_back(TraceSpan{});
  TraceSpan& span = parent->children.back();
  span.name = name;
  span.span_id = trace_span_id(span_namespace_, next_seq_++);
  span.start_ms = start_ms;
  span.dur_ms = dur_ms;
}

FinishedTrace RequestTrace::finish(std::string request_id, std::string type,
                                   std::string keep_reason, std::uint32_t tid,
                                   double base_ms) {
  const double now = clock_.elapsed_ms();
  while (stack_.size() > 1) {
    stack_.back()->dur_ms = now - stack_.back()->start_ms;
    stack_.pop_back();
  }
  root_.dur_ms = now;
  FinishedTrace finished;
  finished.ctx = std::move(ctx_);
  finished.request_id = std::move(request_id);
  finished.type = std::move(type);
  finished.keep_reason = std::move(keep_reason);
  finished.tid = tid;
  finished.base_ms = base_ms;
  finished.root = std::move(root_);
  return finished;
}

TraceWriter::TraceWriter(Options options) : options_(std::move(options)) {
  out_.open(options_.path, std::ios::out | std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("cannot open trace file: " + options_.path);
  }
  out_ << "{\n\"obs_format_version\": " << kObsFormatVersion
       << ",\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  out_.flush();
  writer_ = std::thread([this] { writer_loop(); });
}

TraceWriter::~TraceWriter() { close(); }

void TraceWriter::write(FinishedTrace trace) {
  {
    const util::MutexLock lock(mutex_);
    if (closed_ || pending_.size() >= options_.queue_capacity) {
      ++dropped_;
      return;
    }
    pending_.push_back(std::move(trace));
  }
  cv_.notify_one();
}

void TraceWriter::writer_loop() {
  for (;;) {
    std::deque<FinishedTrace> batch;
    {
      util::MutexLock lock(mutex_);
      while (!closed_ && pending_.empty()) cv_.wait(mutex_);
      if (pending_.empty()) return;  // closed_ and drained
      batch.swap(pending_);
    }
    for (const FinishedTrace& trace : batch) emit(trace);
    out_.flush();
    {
      const util::MutexLock lock(mutex_);
      written_ += batch.size();
    }
  }
}

void TraceWriter::emit(const FinishedTrace& trace) {
  // Pre-order walk: each span becomes one ph:"X" complete event carrying
  // its ids in args, so Perfetto renders the nesting and the ids survive
  // for referential-integrity checks.
  struct Item {
    const TraceSpan* span;
    const std::string* parent_span_id;
  };
  std::vector<Item> work;
  work.push_back(Item{&trace.root, &trace.ctx.span_id});
  while (!work.empty()) {
    const Item item = work.back();
    work.pop_back();
    const TraceSpan& span = *item.span;
    util::JsonObject ev;
    ev["name"] = util::JsonValue(span.name);
    ev["cat"] = util::JsonValue("svc");
    ev["ph"] = util::JsonValue("X");
    ev["ts"] = util::JsonValue((trace.base_ms + span.start_ms) * 1e3);
    ev["dur"] = util::JsonValue(span.dur_ms * 1e3);
    ev["pid"] = util::JsonValue(1);
    ev["tid"] = util::JsonValue(static_cast<std::size_t>(trace.tid));
    util::JsonObject args;
    args["trace_id"] = util::JsonValue(trace.ctx.trace_id);
    args["span_id"] = util::JsonValue(span.span_id);
    args["parent_span_id"] = util::JsonValue(*item.parent_span_id);
    args["request_id"] = util::JsonValue(trace.request_id);
    ev["args"] = util::JsonValue(std::move(args));
    out_ << (first_event_ ? "\n" : ",\n")
         << util::JsonValue(std::move(ev)).dump();
    first_event_ = false;
    for (auto it = span.children.rbegin(); it != span.children.rend(); ++it) {
      work.push_back(Item{&*it, &span.span_id});
    }
  }
  if (summaries_.size() < options_.max_summaries) {
    summaries_.push_back(trace.summary_json().dump());
  } else {
    ++summaries_dropped_;
  }
}

void TraceWriter::close() {
  {
    const util::MutexLock lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (!out_.is_open()) return;  // close() already ran
  std::uint64_t written = 0;
  std::uint64_t dropped = 0;
  {
    const util::MutexLock lock(mutex_);
    written = written_;
    dropped = dropped_;
  }
  out_ << "\n],\n\"traces\": [";
  for (std::size_t i = 0; i < summaries_.size(); ++i) {
    out_ << (i == 0 ? "\n" : ",\n") << summaries_[i];
  }
  out_ << "\n],\n\"kept_traces\": " << written
       << ",\n\"summaries_dropped\": " << summaries_dropped_
       << ",\n\"wall_dropped_traces\": " << dropped << "\n}\n";
  out_.flush();
  out_.close();
}

std::uint64_t TraceWriter::written() const {
  const util::MutexLock lock(mutex_);
  return written_;
}

std::uint64_t TraceWriter::dropped() const {
  const util::MutexLock lock(mutex_);
  return dropped_;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::record(RequestEvent event,
                            std::optional<FinishedTrace> trace) {
  auto entry = std::make_shared<const Entry>(
      Entry{std::move(event), std::move(trace)});
  std::shared_ptr<const Entry> evicted;  // freed after the lock is released
  const util::MutexLock lock(mutex_);
  entries_.push_back(std::move(entry));
  if (entries_.size() > capacity_) {
    evicted = std::move(entries_.front());
    entries_.pop_front();
  }
  ++recorded_;
}

void FlightRecorder::record(RequestEvent event, const FinishedTrace* trace) {
  record(std::move(event), trace != nullptr
                               ? std::optional<FinishedTrace>(*trace)
                               : std::nullopt);
}

util::JsonValue FlightRecorder::to_json() const {
  std::vector<std::shared_ptr<const Entry>> entries;
  std::uint64_t recorded = 0;
  {
    const util::MutexLock lock(mutex_);
    recorded = recorded_;
    entries.assign(entries_.begin(), entries_.end());
  }
  util::JsonArray items;
  items.reserve(entries.size());
  for (const std::shared_ptr<const Entry>& entry : entries) {
    util::JsonObject item;
    item["event"] = entry->event.to_json();
    if (entry->trace) item["trace"] = entry->trace->summary_json();
    items.emplace_back(std::move(item));
  }
  util::JsonObject doc;
  doc["obs_format_version"] = util::JsonValue(kObsFormatVersion);
  doc["capacity"] = util::JsonValue(capacity_);
  doc["recorded_total"] = util::JsonValue(static_cast<std::size_t>(recorded));
  doc["entries"] = util::JsonValue(std::move(items));
  return util::JsonValue(std::move(doc));
}

std::size_t FlightRecorder::size() const {
  const util::MutexLock lock(mutex_);
  return entries_.size();
}

std::uint64_t FlightRecorder::recorded_total() const {
  const util::MutexLock lock(mutex_);
  return recorded_;
}

}  // namespace mecsc::obs
