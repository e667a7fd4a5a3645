#include "telemetry/slo.hpp"

#include <sstream>

#include "analysis/codes.hpp"
#include "obs/json.hpp"

namespace clflow::telemetry {

SloMonitor::SloMonitor(SloSpec spec) : spec_(spec) {
  if (spec_.window == 0) spec_.window = 1;
  latency_.set_window(spec_.window);
}

void SloMonitor::ObserveRequest(const RequestSummary& request,
                                analysis::DiagnosticEngine* diags) {
  ++total_;
  latency_.Observe(request.latency_us);
  const bool late = spec_.latency_objective_us > 0.0 &&
                    request.latency_us > spec_.latency_objective_us;
  const bool violation = !request.ok || late;
  if (violation) ++total_violations_;
  window_.push_back(violation);
  if (violation) ++window_violations_;
  if (window_.size() > spec_.window) {
    if (window_.front()) --window_violations_;
    window_.pop_front();
  }

  // Starvation keys off the worst single stall, not the sum: pipelined
  // designs stall many kernels concurrently, so the sum exceeding the
  // wall latency is healthy, while one event blocked for most of the
  // request is not.
  if (diags != nullptr && request.latency_us > 0.0 &&
      request.max_stall_us / request.latency_us > spec_.starvation_fraction) {
    ++starved_requests_;
    std::ostringstream msg;
    msg << "request " << request.trace_id << " spent "
        << static_cast<int>(request.max_stall_us / request.latency_us * 100.0)
        << "% of its " << request.latency_us
        << " us latency blocked on one channel (queue " << request.queue
        << "); the request is starved, not slow";
    diags->Report(analysis::Diagnostic::Make(
        analysis::kRequestStarvation, {}, msg.str()));
  }

  const bool burning_now = burn_rate() > spec_.burn_threshold;
  if (diags != nullptr && burning_now && !burning_) {
    std::ostringstream msg;
    msg << "latency SLO burn rate " << burn_rate() << "x over the last "
        << window_.size() << " request(s): " << violation_rate() * 100.0
        << "% violate the " << spec_.latency_objective_us
        << " us objective against a "
        << (1.0 - spec_.objective) * 100.0 << "% error budget";
    diags->Report(analysis::Diagnostic::Make(
        analysis::kSloLatencyBurn, {}, msg.str()));
  }
  burning_ = burning_now;
}

double SloMonitor::violation_rate() const {
  if (window_.empty()) return 0.0;
  return static_cast<double>(window_violations_) /
         static_cast<double>(window_.size());
}

double SloMonitor::burn_rate() const {
  const double budget = 1.0 - spec_.objective;
  if (budget <= 0.0) return violation_rate() > 0.0 ? 1e9 : 0.0;
  return violation_rate() / budget;
}

double SloMonitor::goodput() const { return 1.0 - violation_rate(); }

obs::Histogram::Snapshot SloMonitor::WindowLatency() const {
  return latency_.snapshot();
}

void SloMonitor::ExportMetrics(obs::Registry& registry,
                               const obs::Labels& base_labels) const {
  registry.gauge("telemetry.slo.objective_us", base_labels)
      .Set(spec_.latency_objective_us);
  registry.gauge("telemetry.slo.objective", base_labels).Set(spec_.objective);
  registry.gauge("telemetry.slo.window", base_labels)
      .Set(static_cast<double>(window_.size()));
  registry.gauge("telemetry.slo.requests", base_labels)
      .Set(static_cast<double>(total_));
  registry.gauge("telemetry.slo.violations", base_labels)
      .Set(static_cast<double>(total_violations_));
  registry.gauge("telemetry.slo.violation_rate", base_labels)
      .Set(violation_rate());
  registry.gauge("telemetry.slo.burn_rate", base_labels).Set(burn_rate());
  registry.gauge("telemetry.slo.goodput", base_labels).Set(goodput());
  registry.gauge("telemetry.slo.starved_requests", base_labels)
      .Set(static_cast<double>(starved_requests_));
  obs::Histogram& h =
      registry.histogram("telemetry.slo.latency_us", base_labels);
  h.set_window(spec_.window);
  for (double v : latency_.window_samples()) h.Observe(v);
}

std::string SloMonitor::ToText() const {
  const obs::Histogram::Snapshot lat = WindowLatency();
  std::ostringstream os;
  os << "SLO: objective " << spec_.latency_objective_us << " us at "
     << spec_.objective * 100.0 << "% over a " << spec_.window
     << "-request window\n";
  os << "  requests " << total_ << " (window " << window_.size()
     << "), violations " << total_violations_ << ", goodput "
     << goodput() * 100.0 << "%\n";
  os << "  burn rate " << burn_rate() << "x (threshold "
     << spec_.burn_threshold << "x), starved " << starved_requests_ << "\n";
  os << "  latency us: p50 " << lat.p50 << "  p95 " << lat.p95 << "  p99 "
     << lat.p99 << "  max " << lat.max << "\n";
  return os.str();
}

std::string SloMonitor::ToJson() const {
  using obs::JsonNum;
  const obs::Histogram::Snapshot lat = WindowLatency();
  std::ostringstream os;
  os << "{\"objective_us\":" << JsonNum(spec_.latency_objective_us)
     << ",\"objective\":" << JsonNum(spec_.objective)
     << ",\"window\":" << spec_.window << ",\"requests\":" << total_
     << ",\"violations\":" << total_violations_
     << ",\"violation_rate\":" << JsonNum(violation_rate())
     << ",\"burn_rate\":" << JsonNum(burn_rate())
     << ",\"goodput\":" << JsonNum(goodput())
     << ",\"starved_requests\":" << starved_requests_
     << ",\"latency_us\":{\"count\":" << lat.count
     << ",\"p50\":" << JsonNum(lat.p50) << ",\"p95\":" << JsonNum(lat.p95)
     << ",\"p99\":" << JsonNum(lat.p99) << ",\"max\":" << JsonNum(lat.max)
     << "}}";
  return os.str();
}

}  // namespace clflow::telemetry
