#include "obs/chrome_trace.hpp"

#include "obs/json.hpp"

namespace clflow::obs {

TraceArgs& TraceArgs::Add(std::string_view key, const std::string& json) {
  body_ += (body_.empty() ? "\"" : ",\"") + JsonEscape(key) + "\":" + json;
  return *this;
}

TraceArgs& TraceArgs::Num(std::string_view key, double value) {
  return Add(key, JsonNum(value));
}

TraceArgs& TraceArgs::Int(std::string_view key, std::int64_t value) {
  return Add(key, std::to_string(value));
}

TraceArgs& TraceArgs::Id(std::string_view key, std::uint64_t value) {
  return Add(key, std::to_string(value));
}

TraceArgs& TraceArgs::Str(std::string_view key, std::string_view value) {
  return Add(key, "\"" + JsonEscape(value) + "\"");
}

ChromeTraceWriter::ChromeTraceWriter(std::string_view display_time_unit) {
  os_ << '{';
  if (!display_time_unit.empty()) {
    os_ << "\"displayTimeUnit\":\"" << JsonEscape(display_time_unit) << "\",";
  }
  os_ << "\"traceEvents\":[";
}

std::ostringstream& ChromeTraceWriter::Open() {
  os_ << (first_ ? "{" : ",{");
  first_ = false;
  return os_;
}

void ChromeTraceWriter::ProcessName(int pid, std::string_view name) {
  Open() << "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"args\":{\"name\":\"" << JsonEscape(name) << "\"}}";
}

void ChromeTraceWriter::Slice(std::string_view name, std::string_view cat,
                              int pid, int tid, double ts_us, double dur_us,
                              const TraceArgs& args) {
  Open() << "\"name\":\"" << JsonEscape(name) << "\",\"cat\":\""
         << JsonEscape(cat) << "\",\"ph\":\"X\",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"ts\":" << JsonNum(ts_us)
         << ",\"dur\":" << JsonNum(dur_us) << ",\"args\":{" << args.body()
         << "}}";
}

void ChromeTraceWriter::Flow(std::string_view name, char phase,
                             std::uint64_t id, int pid, int tid,
                             double ts_us) {
  const std::string escaped = JsonEscape(name);
  Open() << "\"name\":\"" << escaped << "\",\"cat\":\"" << escaped
         << "\",\"ph\":\"" << phase << "\",\"id\":" << id << ",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"ts\":" << JsonNum(ts_us)
         << (phase == 'f' ? ",\"bp\":\"e\"}" : "}");
}

void ChromeTraceWriter::Counter(std::string_view name, int pid, int tid,
                                double ts_us, std::string_view key,
                                double value) {
  Open() << "\"name\":\"" << JsonEscape(name) << "\",\"ph\":\"C\",\"pid\":"
         << pid;
  if (tid >= 0) os_ << ",\"tid\":" << tid;
  os_ << ",\"ts\":" << JsonNum(ts_us) << ",\"args\":{\"" << JsonEscape(key)
      << "\":" << JsonNum(value) << "}}";
}

std::string ChromeTraceWriter::Finish() {
  os_ << "]}";
  return os_.str();
}

}  // namespace clflow::obs
