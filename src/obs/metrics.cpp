#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/fnv.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"

namespace clflow::obs {

namespace detail {
// Shared with span.cpp (ScopedTelemetry installs it).
thread_local Registry* g_current_registry = nullptr;
}  // namespace detail

void Counter::Add(double delta) {
  std::lock_guard lock(mu_);
  value_ += delta;
}

double Counter::value() const {
  std::lock_guard lock(mu_);
  return value_;
}

void Gauge::Set(double value) {
  std::lock_guard lock(mu_);
  value_ = value;
}

double Gauge::value() const {
  std::lock_guard lock(mu_);
  return value_;
}

void Histogram::Observe(double value) {
  std::lock_guard lock(mu_);
  if (retain_samples_) {
    samples_.push_back(value);
    if (window_ > 0 && samples_.size() > window_) samples_.pop_front();
  } else {
    buckets_.Observe(value);
  }
}

void Histogram::set_retain_samples(bool retain) {
  std::lock_guard lock(mu_);
  if (retain == retain_samples_) return;
  retain_samples_ = retain;
  if (retain) {
    buckets_.Clear();
  } else {
    samples_.clear();
  }
}

bool Histogram::retain_samples() const {
  std::lock_guard lock(mu_);
  return retain_samples_;
}

void Histogram::set_window(std::size_t n) {
  std::lock_guard lock(mu_);
  if (!retain_samples_) {
    retain_samples_ = true;
    buckets_.Clear();
  }
  window_ = n;
  if (window_ > 0) {
    while (samples_.size() > window_) samples_.pop_front();
  }
}

std::vector<double> Histogram::window_samples() const {
  std::lock_guard lock(mu_);
  return {samples_.begin(), samples_.end()};
}

LogHistogram Histogram::log_buckets() const {
  std::lock_guard lock(mu_);
  return buckets_;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

Histogram::Snapshot Histogram::snapshot() const {
  std::vector<double> sorted;
  {
    std::lock_guard lock(mu_);
    if (!retain_samples_) {
      Snapshot s;
      s.count = buckets_.count();
      s.sum = buckets_.sum();
      s.min = buckets_.min();
      s.max = buckets_.max();
      s.p50 = buckets_.Quantile(0.50);
      s.p95 = buckets_.Quantile(0.95);
      s.p99 = buckets_.Quantile(0.99);
      return s;
    }
    sorted.assign(samples_.begin(), samples_.end());
  }
  std::sort(sorted.begin(), sorted.end());
  Snapshot s;
  s.count = static_cast<std::int64_t>(sorted.size());
  if (sorted.empty()) return s;
  for (double v : sorted) s.sum += v;
  s.min = sorted.front();
  s.max = sorted.back();
  s.p50 = Percentile(sorted, 0.50);
  s.p95 = Percentile(sorted, 0.95);
  s.p99 = Percentile(sorted, 0.99);
  return s;
}

std::string SeriesKey(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  std::string key = name + "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) key += ",";
    first = false;
    key += k + "=" + v;
  }
  key += "}";
  return key;
}

template <typename M>
M& Registry::Intern(std::map<std::string, Entry<M>>& series,
                    const std::string& name, const Labels& labels) {
  std::lock_guard lock(mu_);
  const std::string key = SeriesKey(name, labels);
  auto it = series.find(key);
  if (it == series.end()) {
    it = series.emplace(key, Entry<M>{name, labels, std::make_unique<M>()})
             .first;
  }
  return *it->second.metric;
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  return Intern(counters_, name, labels);
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  return Intern(gauges_, name, labels);
}

Histogram& Registry::histogram(const std::string& name, const Labels& labels) {
  return Intern(histograms_, name, labels);
}

TimeSeries& Registry::series(const std::string& name, const Labels& labels,
                             TimeSeries::Kind kind, const WindowSpec& spec) {
  std::lock_guard lock(mu_);
  const std::string key = SeriesKey(name, labels);
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_
             .emplace(key, Entry<TimeSeries>{
                               name, labels,
                               std::make_unique<TimeSeries>(kind, spec)})
             .first;
  }
  return *it->second.metric;
}

std::vector<std::pair<std::string, Labels>> Registry::SeriesKeys() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, Labels>> out;
  out.reserve(series_.size());
  for (const auto& [key, e] : series_) out.emplace_back(e.name, e.labels);
  return out;
}

namespace {

std::string LabelsJson(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += JsonEscape(k);
    out += "\":\"";
    out += JsonEscape(v);
    out += '"';
  }
  return out + "}";
}

}  // namespace

std::string Registry::ToJson() const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  os << "{\"counters\":[";
  bool first = true;
  for (const auto& [key, e] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << JsonEscape(e.name) << "\",\"labels\":"
       << LabelsJson(e.labels) << ",\"value\":" << JsonNum(e.metric->value())
       << "}";
  }
  os << "],\"gauges\":[";
  first = true;
  for (const auto& [key, e] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << JsonEscape(e.name) << "\",\"labels\":"
       << LabelsJson(e.labels) << ",\"value\":" << JsonNum(e.metric->value())
       << "}";
  }
  os << "],\"histograms\":[";
  first = true;
  for (const auto& [key, e] : histograms_) {
    if (!first) os << ",";
    first = false;
    const Histogram::Snapshot s = e.metric->snapshot();
    os << "{\"name\":\"" << JsonEscape(e.name) << "\",\"labels\":"
       << LabelsJson(e.labels) << ",\"count\":" << s.count
       << ",\"sum\":" << JsonNum(s.sum) << ",\"min\":" << JsonNum(s.min)
       << ",\"max\":" << JsonNum(s.max) << ",\"p50\":" << JsonNum(s.p50)
       << ",\"p95\":" << JsonNum(s.p95) << ",\"p99\":" << JsonNum(s.p99)
       << "}";
  }
  os << "],\"series\":[";
  first = true;
  for (const auto& [key, e] : series_) {
    if (!first) os << ",";
    first = false;
    const TimeSeries& ts = *e.metric;
    os << "{\"name\":\"" << JsonEscape(e.name) << "\",\"labels\":"
       << LabelsJson(e.labels) << ",\"kind\":\""
       << TimeSeriesKindName(ts.kind())
       << "\",\"resolution_us\":" << JsonNum(ts.spec().resolution.us())
       << ",\"total\":" << JsonNum(ts.Total())
       << ",\"dropped\":" << ts.dropped_late() << ",\"windows\":[";
    bool wfirst = true;
    for (const TimeSeries::Window& w : ts.Windows()) {
      if (!wfirst) os << ",";
      wfirst = false;
      os << "{\"index\":" << w.index << ",\"start_us\":"
         << JsonNum(w.start_us) << ",\"value\":" << JsonNum(w.value)
         << ",\"count\":" << w.count << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

namespace {

/// Maps a clflow metric name onto a Prometheus identifier: dots (our
/// namespacing) become underscores; anything else outside [a-zA-Z0-9_:]
/// is folded to '_' as well.
std::string PromName(const std::string& name) {
  std::string out;
  if (!name.empty() && name[0] >= '0' && name[0] <= '9') out += '_';
  out += name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

/// Label-value escaping per the text format: backslash, quote, newline.
std::string PromEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// {k="v",...} rendering; `extra` appends one more label when non-empty.
std::string PromLabels(const Labels& labels, const std::string& extra_key = "",
                       const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += PromName(k) + "=\"" + PromEscape(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + PromEscape(extra_value) + "\"";
  }
  return out + "}";
}

}  // namespace

std::string Registry::ToPrometheus() const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  std::string last_type_line;
  auto type_header = [&os, &last_type_line](const std::string& name,
                                            const char* type) {
    // One TYPE line per metric name; series of the same name (different
    // labels) sort adjacently in the map, so tracking the last header
    // suffices.
    const std::string line = "# TYPE " + name + " " + type + "\n";
    if (line != last_type_line) {
      os << line;
      last_type_line = line;
    }
  };
  for (const auto& [key, e] : counters_) {
    const std::string name = PromName(e.name);
    type_header(name, "counter");
    os << name << PromLabels(e.labels) << " " << JsonNum(e.metric->value())
       << "\n";
  }
  for (const auto& [key, e] : gauges_) {
    const std::string name = PromName(e.name);
    type_header(name, "gauge");
    os << name << PromLabels(e.labels) << " " << JsonNum(e.metric->value())
       << "\n";
  }
  for (const auto& [key, e] : histograms_) {
    const std::string name = PromName(e.name);
    const Histogram::Snapshot s = e.metric->snapshot();
    type_header(name, "summary");
    os << name << PromLabels(e.labels, "quantile", "0.5") << " "
       << JsonNum(s.p50) << "\n";
    os << name << PromLabels(e.labels, "quantile", "0.95") << " "
       << JsonNum(s.p95) << "\n";
    os << name << PromLabels(e.labels, "quantile", "0.99") << " "
       << JsonNum(s.p99) << "\n";
    os << name << "_sum" << PromLabels(e.labels) << " " << JsonNum(s.sum)
       << "\n";
    os << name << "_count" << PromLabels(e.labels) << " " << s.count << "\n";
  }
  // Time series: counters expose the windowed total plus the rate over
  // the retained span; gauge series expose their latest value. Per-window
  // detail stays in the JSON export (unbounded label cardinality does not
  // belong in a Prometheus scrape).
  for (const auto& [key, e] : series_) {
    const TimeSeries& ts = *e.metric;
    const std::string name = PromName(e.name);
    if (ts.kind() == TimeSeries::Kind::kCounter) {
      type_header(name + "_total", "counter");
      os << name << "_total" << PromLabels(e.labels) << " "
         << JsonNum(ts.Total()) << "\n";
    } else {
      type_header(name, "gauge");
      os << name << PromLabels(e.labels) << " "
         << JsonNum(ts.ValueAt(ts.spec().resolution * ts.last_index()))
         << "\n";
    }
  }
  // Rates in a second pass so each `# TYPE` header still appears exactly
  // once per metric name even when same-named counter series alternate
  // with their rate gauges.
  for (const auto& [key, e] : series_) {
    const TimeSeries& ts = *e.metric;
    if (ts.kind() != TimeSeries::Kind::kCounter) continue;
    const std::string name = PromName(e.name) + "_rate_per_s";
    type_header(name, "gauge");
    os << name << PromLabels(e.labels) << " "
       << JsonNum(ts.RateOver(ts.spec().resolution *
                              static_cast<std::int64_t>(ts.spec().windows)))
       << "\n";
  }
  return os.str();
}

Table Registry::SummaryTable() const {
  std::lock_guard lock(mu_);
  Table table({"Metric", "Kind", "Value", "p50", "p95", "p99", "Max"});
  for (const auto& [key, e] : counters_) {
    table.AddRow({key, "counter", Table::Num(e.metric->value(), 0), "", "",
                  "", ""});
  }
  for (const auto& [key, e] : gauges_) {
    table.AddRow({key, "gauge", Table::Num(e.metric->value(), 2), "", "",
                  "", ""});
  }
  for (const auto& [key, e] : histograms_) {
    const Histogram::Snapshot s = e.metric->snapshot();
    table.AddRow({key, "histogram",
                  "n=" + std::to_string(s.count),
                  Table::Num(s.p50, 2), Table::Num(s.p95, 2),
                  Table::Num(s.p99, 2), Table::Num(s.max, 2)});
  }
  for (const auto& [key, e] : series_) {
    const TimeSeries& ts = *e.metric;
    const bool counter = ts.kind() == TimeSeries::Kind::kCounter;
    const double value =
        counter ? ts.Total()
                : ts.ValueAt(ts.spec().resolution * ts.last_index());
    table.AddRow({key, "series", Table::Num(value, 2), "", "", "", ""});
  }
  return table;
}

Registry& Registry::Default() {
  static Registry* instance = new Registry();  // leaked: outlives all users
  return *instance;
}

Registry* Registry::Current() {
  return detail::g_current_registry != nullptr ? detail::g_current_registry
                                               : &Default();
}

}  // namespace clflow::obs
