// Human-readable synthesis reports.
//
// The real flow's `aoc -report` HTML is how the thesis diagnoses designs
// (area estimates, LSU inventory, loop IIs -- SS4.11 notes the estimates
// "often grossly overestimate" and that place-and-route is needed for
// truth). WriteFitReport renders the equivalent information from the
// synthesis model: per-kernel area, the LSU inventory with the SS2.4.3
// type taxonomy, pipelining status per kernel, and the fit/route verdict.
#pragma once

#include <string>

#include "fpga/synth.hpp"

namespace clflow::fpga {

/// Renders a complete fit report for a synthesized (or failed) bitstream:
/// resource totals, per-kernel area, the per-site LSU inventory and, when
/// the design synthesized, per-kernel dynamic estimates (cycles, bytes).
[[nodiscard]] std::string WriteFitReport(const Bitstream& bitstream);

}  // namespace clflow::fpga
