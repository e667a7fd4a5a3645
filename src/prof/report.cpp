#include "prof/report.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/table.hpp"
#include "obs/html.hpp"
#include "obs/json.hpp"

namespace clflow::prof {

namespace {

using obs::JsonEscape;
using obs::JsonNum;

std::string Us(double v) { return Table::Num(v, 1); }

}  // namespace

std::string ToText(const Profile& p) {
  std::ostringstream os;
  os << "profile: " << p.net << " on " << p.board_name << " (" << p.board_key
     << ")\n";
  os << "  fmax " << Table::Num(p.fmax_mhz, 0) << " MHz (base "
     << Table::Num(p.base_fmax_mhz, 0) << "), peak "
     << Table::Num(p.peak_gflops, 0) << " GFLOP/s, DRAM "
     << Table::Num(p.mem_bw_gbps, 1) << " GB/s\n";
  os << "  makespan " << Us(p.makespan_us) << " us  (h2d " << Us(p.write_us)
     << " us, d2h " << Us(p.read_us) << " us)\n\n";

  Table attribution({"Kernel", "Class", "Launches", "Time us", "Share",
                     "II us", "Mem us", "Fmax us", "Stall us", "Launch us",
                     "Bottleneck", "Drift"});
  for (const auto& k : p.kernels) {
    attribution.AddRow(
        {k.name, k.op_class, std::to_string(k.launches), Us(k.total_us),
         Table::Pct(k.share), Us(k.compute_us), Us(k.memory_us),
         Us(k.fmax_us), Us(k.stall_us), Us(k.launch_us),
         std::string(BottleneckName(k.bottleneck)),
         Table::SignedPct(k.drift, 1)});
  }
  os << attribution.ToString() << "\n";

  Table roofline({"Kernel", "Flops", "Bytes", "AI flop/B", "GFLOP/s",
                  "Roof GFLOP/s", "Headroom"});
  for (const auto& k : p.kernels) {
    roofline.AddRow({k.name, Table::Num(k.flops, 0), Table::Num(k.bytes, 0),
                     Table::Num(k.intensity, 2),
                     Table::Num(k.achieved_gflops, 2),
                     Table::Num(k.roof_gflops, 1),
                     k.achieved_gflops > 0
                         ? Table::Speedup(k.roof_gflops / k.achieved_gflops, 1)
                         : "-"});
  }
  os << roofline.ToString() << "\n";

  Table queues({"Queue", "Busy us", "Idle us", "Occupancy"});
  for (const auto& q : p.queues) {
    const double span = q.busy_us + q.idle_us;
    queues.AddRow({std::to_string(q.queue), Us(q.busy_us), Us(q.idle_us),
                   span > 0 ? Table::Pct(q.busy_us / span) : "-"});
  }
  if (p.autorun_busy_us > 0) {
    queues.AddRow({"autorun", Us(p.autorun_busy_us), "-", "-"});
  }
  os << queues.ToString();
  if (p.unmatched_events > 0) {
    os << "\nWARNING: " << p.unmatched_events
       << " kernel event(s) did not match the launch plan (CLF602)\n";
  }
  return os.str();
}

std::string ToJson(const Profile& p) {
  std::ostringstream os;
  os << "{\"net\":\"" << JsonEscape(p.net) << "\",\"board\":\""
     << JsonEscape(p.board_key) << "\",\"fmax_mhz\":" << JsonNum(p.fmax_mhz)
     << ",\"base_fmax_mhz\":" << JsonNum(p.base_fmax_mhz)
     << ",\"peak_gflops\":" << JsonNum(p.peak_gflops)
     << ",\"mem_bw_gbps\":" << JsonNum(p.mem_bw_gbps)
     << ",\"makespan_us\":" << JsonNum(p.makespan_us)
     << ",\"write_us\":" << JsonNum(p.write_us)
     << ",\"read_us\":" << JsonNum(p.read_us)
     << ",\"unmatched_events\":" << p.unmatched_events
     << ",\"conservation_error_us\":" << JsonNum(p.conservation_error_us);
  os << ",\"kernels\":[";
  bool first = true;
  for (const auto& k : p.kernels) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << JsonEscape(k.name) << "\",\"op_class\":\""
       << JsonEscape(k.op_class) << "\",\"launches\":" << k.launches
       << ",\"total_us\":" << JsonNum(k.total_us)
       << ",\"compute_us\":" << JsonNum(k.compute_us)
       << ",\"memory_us\":" << JsonNum(k.memory_us)
       << ",\"fmax_us\":" << JsonNum(k.fmax_us)
       << ",\"stall_us\":" << JsonNum(k.stall_us)
       << ",\"launch_us\":" << JsonNum(k.launch_us)
       << ",\"share\":" << JsonNum(k.share)
       << ",\"predicted_us\":" << JsonNum(k.predicted_us)
       << ",\"drift\":" << JsonNum(k.drift) << ",\"bottleneck\":\""
       << BottleneckName(k.bottleneck) << "\",\"flops\":" << JsonNum(k.flops)
       << ",\"bytes\":" << JsonNum(k.bytes)
       << ",\"intensity\":" << JsonNum(k.intensity)
       << ",\"achieved_gflops\":" << JsonNum(k.achieved_gflops)
       << ",\"roof_gflops\":" << JsonNum(k.roof_gflops) << "}";
  }
  os << "],\"queues\":[";
  first = true;
  for (const auto& q : p.queues) {
    if (!first) os << ",";
    first = false;
    os << "{\"queue\":" << q.queue << ",\"busy_us\":" << JsonNum(q.busy_us)
       << ",\"idle_us\":" << JsonNum(q.idle_us) << "}";
  }
  os << "],\"events\":[";
  first = true;
  for (const auto& e : p.events) {
    if (!first) os << ",";
    first = false;
    os << "{\"kernel\":\"" << JsonEscape(e.kernel)
       << "\",\"queue\":" << e.queue << ",\"invocation\":" << e.invocation
       << ",\"start_us\":" << JsonNum(e.start_us)
       << ",\"duration_us\":" << JsonNum(e.duration_us)
       << ",\"compute_us\":" << JsonNum(e.compute_us)
       << ",\"memory_us\":" << JsonNum(e.memory_us)
       << ",\"fmax_us\":" << JsonNum(e.fmax_us)
       << ",\"stall_us\":" << JsonNum(e.stall_us)
       << ",\"launch_us\":" << JsonNum(e.launch_us) << ",\"bottleneck\":\""
       << BottleneckName(e.bottleneck) << "\"}";
  }
  os << "]}";
  return os.str();
}

namespace {

using obs::HtmlEscape;

const char* SliceColor(const std::string& kind) {
  if (kind == "write") return "#4c8dd6";
  if (kind == "read") return "#55b8a0";
  if (kind == "stall") return "#e0b13f";
  if (kind == "fault") return "#d65a4c";
  return "#7d6fc3";  // kernel
}

}  // namespace

std::string ToHtml(const Profile& p) {
  std::ostringstream os;
  obs::WritePageHead(os, "clflow profile: " + p.net,
                     ".bar{display:flex;height:18px;width:480px;"
                     "background:#eee}.bar div{height:100%}");
  os << "<h1>clflow profile &mdash; " << HtmlEscape(p.net) << " on "
     << HtmlEscape(p.board_name) << "</h1>";
  os << "<p>fmax " << Table::Num(p.fmax_mhz, 0) << " MHz (base "
     << Table::Num(p.base_fmax_mhz, 0) << " MHz) &middot; peak "
     << Table::Num(p.peak_gflops, 0) << " GFLOP/s &middot; DRAM "
     << Table::Num(p.mem_bw_gbps, 1) << " GB/s &middot; makespan "
     << Table::Num(p.makespan_us, 1) << " &micro;s</p>";

  // --- Timeline: one lane per queue, plus one for autorun kernels. ---------
  std::map<int, int> lane;  // queue -> lane index
  for (const auto& s : p.timeline) {
    if (!lane.count(s.queue)) {
      const int next = static_cast<int>(lane.size());
      lane[s.queue] = next;
    }
  }
  const int lane_h = 26, label_w = 70;
  const int width = 960, plot_w = width - label_w;
  const int height = static_cast<int>(lane.size()) * lane_h + 24;
  const double span = std::max(p.makespan_us, 1e-9);
  double t0 = 0.0;
  for (const auto& s : p.timeline) t0 = std::min(t0, s.start_us);
  os << "<h2>Timeline (" << Table::Num(p.makespan_us, 1) << " &micro;s)</h2>";
  obs::WriteSvgOpen(os, width, height);
  for (const auto& [q, l] : lane) {
    os << "<text x=\"0\" y=\"" << l * lane_h + 16 << "\">"
       << (q < 0 ? std::string("autorun") : "queue " + std::to_string(q))
       << "</text>";
  }
  for (const auto& s : p.timeline) {
    const double x =
        label_w + (s.start_us - t0) / span * static_cast<double>(plot_w);
    const double w = std::max(
        1.0, s.dur_us / span * static_cast<double>(plot_w));
    os << "<rect x=\"" << Table::Num(x, 1) << "\" y=\""
       << lane[s.queue] * lane_h + 4 << "\" width=\"" << Table::Num(w, 1)
       << "\" height=\"" << lane_h - 8 << "\" fill=\"" << SliceColor(s.kind)
       << "\"><title>" << HtmlEscape(s.label) << " (" << s.kind << "): "
       << Table::Num(s.dur_us, 2) << " us @ " << Table::Num(s.start_us, 2)
       << " us</title></rect>";
  }
  os << "</svg>";
  obs::WriteLegend(os, {{SliceColor("write"), "write"},
                        {SliceColor("kernel"), "kernel"},
                        {SliceColor("stall"), "stall"},
                        {SliceColor("read"), "read"},
                        {SliceColor("fault"), "fault"}});

  // --- Per-kernel attribution bars. ----------------------------------------
  os << "<h2>Bottleneck attribution</h2>";
  obs::WriteLegend(os, {{"#5a9e5d", "II"},
                        {"#c2703f", "memory"},
                        {"#b04a5a", "fmax"},
                        {"#e0b13f", "stall"},
                        {"#888", "launch"}});
  os << "<table><tr><th>Kernel</th><th>Launches</th><th>Time &micro;s</th>"
     << "<th>Attribution</th><th>Bottleneck</th><th>Drift</th></tr>";
  for (const auto& k : p.kernels) {
    const double whole =
        k.total_us + k.stall_us + k.launch_us;
    auto seg = [&](double v, const char* color) {
      if (v <= 0 || whole <= 0) return;
      os << "<div style=\"width:" << Table::Num(v / whole * 100.0, 2)
         << "%;background:" << color << "\" title=\""
         << Table::Num(v, 2) << " us\"></div>";
    };
    os << "<tr><td>" << HtmlEscape(k.name) << "</td><td>" << k.launches
       << "</td><td>" << Table::Num(k.total_us, 1)
       << "</td><td><div class=\"bar\">";
    seg(k.compute_us, "#5a9e5d");
    seg(k.memory_us, "#c2703f");
    seg(k.fmax_us, "#b04a5a");
    seg(k.stall_us, "#e0b13f");
    seg(k.launch_us, "#888");
    os << "</div></td><td>" << BottleneckName(k.bottleneck) << "</td><td>"
       << (k.drift >= 0 ? "+" : "") << Table::Pct(k.drift, 1)
       << "</td></tr>";
  }
  os << "</table>";

  // --- Roofline table. -----------------------------------------------------
  os << "<h2>Roofline</h2><table><tr><th>Kernel</th><th>AI flop/B</th>"
     << "<th>GFLOP/s</th><th>Roof GFLOP/s</th><th>Headroom</th></tr>";
  for (const auto& k : p.kernels) {
    os << "<tr><td>" << HtmlEscape(k.name) << "</td><td>"
       << Table::Num(k.intensity, 2) << "</td><td>"
       << Table::Num(k.achieved_gflops, 2) << "</td><td>"
       << Table::Num(k.roof_gflops, 1) << "</td><td>"
       << (k.achieved_gflops > 0
               ? Table::Speedup(k.roof_gflops / k.achieved_gflops, 1)
               : "-")
       << "</td></tr>";
  }
  os << "</table>";

  // --- Queue occupancy. ----------------------------------------------------
  os << "<h2>Queues</h2><table><tr><th>Queue</th><th>Busy &micro;s</th>"
     << "<th>Idle &micro;s</th><th>Occupancy</th></tr>";
  for (const auto& q : p.queues) {
    const double s = q.busy_us + q.idle_us;
    os << "<tr><td>" << q.queue << "</td><td>" << Table::Num(q.busy_us, 1)
       << "</td><td>" << Table::Num(q.idle_us, 1) << "</td><td>"
       << (s > 0 ? Table::Pct(q.busy_us / s) : "-") << "</td></tr>";
  }
  os << "</table></body></html>";
  return os.str();
}

}  // namespace clflow::prof
