#include "support/trace.h"

#include <fstream>
#include <string_view>

namespace disc {

namespace {

constexpr size_t kDefaultCapacity = 1 << 16;

// Chrome-trace JSON string escaping (quotes, backslashes, control chars).
void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendArgs(std::string* out, const std::vector<TraceArg>& args) {
  *out += "{";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) *out += ",";
    first = false;
    *out += "\"";
    AppendEscaped(out, key);
    *out += "\":\"";
    AppendEscaped(out, value);
    *out += "\"";
  }
  *out += "}";
}

}  // namespace

TraceSession::TraceSession()
    : epoch_(std::chrono::steady_clock::now()), capacity_(kDefaultCapacity) {}

TraceSession& TraceSession::Global() {
  static TraceSession* session = new TraceSession();
  return *session;
}

void TraceSession::Enable() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.empty()) ring_.resize(capacity_);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

double TraceSession::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceSession::AddCompleteEvent(std::string name, const char* category,
                                    double ts_us, double dur_us, int pid,
                                    int tid, std::vector<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.category = category;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.pid = pid;
  event.tid = tid;
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (size_ < capacity_) {
    ring_[(head_ + size_) % capacity_] = std::move(event);
    ++size_;
  } else {
    ring_[head_] = std::move(event);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }
}

void TraceSession::AddInstantEvent(std::string name, const char* category,
                                   std::vector<TraceArg> args) {
  if (!enabled()) return;
  AddCompleteEvent(std::move(name), category, NowUs(), /*dur_us=*/-1.0,
                   kWallPid, CurrentThreadTid(), std::move(args));
}

int TraceSession::CurrentThreadTid() {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = thread_ids_.try_emplace(
      std::this_thread::get_id(), static_cast<int>(thread_ids_.size()));
  (void)inserted;
  return it->second;
}

void TraceSession::WriteJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"disc (wall clock)\"}},\n";
  out +=
      "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
      "\"args\":{\"name\":\"serving (simulated clock)\"}}";
  char buf[96];
  for (size_t i = 0; i < size_; ++i) {
    const TraceEvent& event = ring_[(head_ + i) % capacity_];
    out += ",\n{\"name\":\"";
    AppendEscaped(&out, event.name);
    out += "\",\"cat\":\"";
    AppendEscaped(&out, event.category);
    out += "\",";
    if (event.dur_us < 0) {
      std::snprintf(buf, sizeof(buf), "\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,",
                    event.ts_us);
    } else {
      std::snprintf(buf, sizeof(buf), "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,",
                    event.ts_us, event.dur_us);
    }
    out += buf;
    std::snprintf(buf, sizeof(buf), "\"pid\":%d,\"tid\":%d", event.pid,
                  event.tid);
    out += buf;
    if (!event.args.empty()) {
      out += ",\"args\":";
      AppendArgs(&out, event.args);
    }
    out += "}";
  }
  out += "\n]}\n";
  os << out;
}

Status TraceSession::WriteJson(const std::string& path) const {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::NotFound("cannot open trace file: " + path);
  }
  WriteJson(file);
  file.flush();
  if (!file.good()) {
    return Status::Internal("failed writing trace file: " + path);
  }
  return Status::OK();
}

void TraceSession::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> next(capacity);
  size_t keep = std::min(size_, capacity);
  // Keep the newest `keep` events, oldest first.
  for (size_t i = 0; i < keep; ++i) {
    next[i] = std::move(ring_[(head_ + (size_ - keep) + i) % capacity_]);
  }
  dropped_ += static_cast<int64_t>(size_ - keep);
  ring_ = std::move(next);
  capacity_ = capacity;
  head_ = 0;
  size_ = keep;
}

size_t TraceSession::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

int64_t TraceSession::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<TraceEvent> TraceSession::Snapshot(const char* category) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> events;
  events.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    const TraceEvent& event = ring_[(head_ + i) % capacity_];
    if (category != nullptr && std::string_view(event.category) != category) {
      continue;
    }
    events.push_back(event);
  }
  return events;
}

void TraceSession::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

TraceScope::TraceScope(const char* name, const char* category) {
  TraceSession& session = TraceSession::Global();
  if (!session.enabled()) return;
  active_ = true;
  name_ = name;
  category_ = category;
  start_us_ = session.NowUs();
}

TraceScope::TraceScope(const std::string& name, const char* category) {
  TraceSession& session = TraceSession::Global();
  if (!session.enabled()) return;
  active_ = true;
  dyn_name_ = name;
  category_ = category;
  start_us_ = session.NowUs();
}

TraceScope::~TraceScope() {
  if (!active_) return;
  TraceSession& session = TraceSession::Global();
  double end_us = session.NowUs();
  session.AddCompleteEvent(
      dyn_name_.empty() ? std::string(name_) : std::move(dyn_name_),
      category_, start_us_, end_us - start_us_, TraceSession::kWallPid,
      session.CurrentThreadTid(), std::move(args_));
}

void TraceScope::AddArg(std::string key, std::string value) {
  if (!active_) return;
  args_.emplace_back(std::move(key), std::move(value));
}

}  // namespace disc
