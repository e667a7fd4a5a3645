#include "fpga/report.hpp"

#include <sstream>

#include "common/table.hpp"

namespace clflow::fpga {

std::string WriteFitReport(const Bitstream& bitstream) {
  std::ostringstream os;
  const BoardSpec& board = bitstream.board;
  os << "=== clflow fit report ===\n";
  os << "board: " << board.name << " (" << board.key << "), base fmax "
     << board.base_fmax_mhz << " MHz, external memory " << board.ext_bw_gbps
     << " GB/s\n";
  os << "flags: " << (bitstream.options.fp_relaxed ? "-fp-relaxed " : "")
     << (bitstream.options.fpc ? "-fpc" : "") << "\n";
  os << "status: " << SynthStatusName(bitstream.status);
  if (!bitstream.status_detail.empty()) {
    os << " (" << bitstream.status_detail << ")";
  }
  os << "\n";
  if (bitstream.ok()) {
    os << "fmax: " << Table::Num(bitstream.fmax_mhz, 0)
       << " MHz   routing pressure: "
       << Table::Num(bitstream.routing_pressure, 2) << "\n";
  }

  const auto& t = bitstream.totals;
  os << "\n-- resource totals (device fractions include the static "
        "partition) --\n";
  {
    Table table({"Resource", "Kernels", "Device total", "Utilization"});
    table.AddRow({"ALUTs", std::to_string(t.aluts),
                  std::to_string(board.aluts), Table::Pct(t.alut_frac)});
    table.AddRow({"FFs", std::to_string(t.ffs), std::to_string(board.ffs),
                  Table::Pct(t.ff_frac)});
    table.AddRow({"RAMs", std::to_string(t.brams),
                  std::to_string(board.brams), Table::Pct(t.bram_frac)});
    table.AddRow({"DSPs", std::to_string(t.dsps),
                  std::to_string(board.dsps), Table::Pct(t.dsp_frac)});
    os << table.ToString();
  }

  os << "\n-- kernels --\n";
  {
    Table table({"Kernel", "ALUTs", "RAMs", "DSPs", "LSUs", "LSU bits",
                 "Worst II", "Pipelined"});
    for (const auto& k : bitstream.kernels) {
      table.AddRow({k.name, std::to_string(k.aluts),
                    std::to_string(k.brams), std::to_string(k.dsps),
                    std::to_string(k.lsu_count),
                    std::to_string(k.lsu_width_bits),
                    std::to_string(k.static_stats.worst_ii),
                    k.static_stats.has_serial_region ? "partial" : "yes"});
    }
    os << table.ToString();
  }

  {
    os << "\n-- LSU inventory (SS2.4.3 taxonomy) --\n";
    Table table({"Kernel", "Buffer", "Dir", "Type", "Width", "Replicas",
                 "Run"});
    for (const auto& k : bitstream.kernels) {
      for (const auto& site : k.static_stats.accesses) {
        table.AddRow({k.name, site.buffer, site.is_store ? "store" : "load",
                      std::string(ir::LsuTypeName(site.lsu_type())),
                      std::to_string(site.width_elems * 32) + "b",
                      std::to_string(site.lsu_count),
                      std::to_string(site.run_elems)});
      }
    }
    os << table.ToString();
  }

  if (bitstream.ok()) {
    os << "\n-- dynamic estimates (representative bindings) --\n";
    Table table({"Kernel", "Cycles", "Time us", "Read MB", "Write MB"});
    for (const auto& k : bitstream.kernels) {
      const double cycles = InvocationCycles(k.static_stats, board,
                                             bitstream.fmax_mhz);
      table.AddRow({k.name, Table::Num(cycles, 0),
                    Table::Num(cycles / bitstream.fmax_mhz, 1),
                    Table::Num(k.static_stats.global_bytes_read / 1e6, 2),
                    Table::Num(k.static_stats.global_bytes_written / 1e6, 2)});
    }
    os << table.ToString();
  }
  return os.str();
}

}  // namespace clflow::fpga
