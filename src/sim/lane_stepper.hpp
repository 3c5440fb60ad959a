// Lane-stepped timeline grid: the SoA clock table behind the lockstep
// batch kernel (src/experiment/lockstep.cpp), living alongside the event-
// heap Simulator as the second timeline engine in src/sim.
//
// K independent replications ("lanes") of one scenario run inside a single
// task.  Each lane owns a fixed set of recurring time sources ("slots") —
// for the PSD server: one reallocation tick, one arrival stream per class,
// and the completions of its servers — laid out contiguously per lane so a
// lane's entire timeline state is one cache line for typical class counts.
//
// Dedicated-rate lanes: the event-ordering contract of the heap+stream
// Simulator is reproduced by *slot index order* alone.  next_slot() is a
// strict first-minimum scan, so at equal fire times the lowest-indexed slot
// wins.  Arranging slots as
//
//   [0]          heap events (the periodic reallocation tick)
//   [1 .. S]     rank-0 streams in registration order (arrival generators)
//   [S+1 .. 2S]  rank-1 streams in registration order (completions)
//
// yields exactly Simulator::run_until's ordering: heap-before-streams at
// ties, then streams by (tie_rank, registration index).  A kernel that
// processes slots while fire_time <= chunk_limit and feeds the same draws
// through the same arithmetic therefore produces bitwise-identical results
// to the per-task path — the determinism contract the lockstep tests pin.
// (The kernel's hot path skips the scan strictly below the boundary: there
// classes are independent FCFS servers at constant rates, so it walks each
// class's requests by Lindley's recursion and reads only its arrival and
// completion slots; this scan fires the tick and the boundary ties.  See
// lockstep.cpp.)
//
// SFQ lanes: the layout is [0] tick, [1 .. S] arrivals, [S+1] the shared
// processor's completion.  Both the tick and that completion are heap
// events in the per-task path (PeriodicProcess and SfqBackend schedule
// them on the EventQueue), so no fixed index order fits: the kernel fires
// whichever of the two is earlier, at equal times the one scheduled first
// (EventQueue's (time, sequence) order, mirrored by a per-lane flag), and
// runs an arrival first only when it is strictly earlier —
// next_slot() over [1 .. S] picks the arrival, lowest class on ties.
//
// Lanes advance through shared chunk boundaries round-robin (lane 0 to the
// boundary, then lane 1, ...), which keeps every lane's working set warm
// and the draw-block refills batched, without any cross-lane interaction:
// per-lane processing order is invariant to chunk placement because slot
// selection is a pure function of the lane's own clock vector.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace psd {

class LaneClockGrid {
 public:
  LaneClockGrid(std::size_t lanes, std::size_t slots)
      : lanes_(lanes), slots_(slots), times_(lanes * slots, kInf) {
    PSD_REQUIRE(lanes > 0, "need at least one lane");
    PSD_REQUIRE(slots > 0, "need at least one slot per lane");
  }

  std::size_t lanes() const { return lanes_; }
  std::size_t slots() const { return slots_; }

  /// Contiguous clock vector of one lane (`slots()` entries).
  Time* lane(std::size_t lane) { return times_.data() + lane * slots_; }
  const Time* lane(std::size_t lane) const {
    return times_.data() + lane * slots_;
  }

  /// First-minimum scan over one lane's clock vector: the slot with the
  /// earliest fire time, ties resolved to the lowest index (strict '<', so
  /// the scan order IS the tie-break order).  A branch-light linear pass —
  /// slot counts are single digits for the PSD server, cheaper than any
  /// heap maintenance, and trivially unrolled by the compiler.
  static std::size_t next_slot(const Time* clocks, std::size_t slots) {
    std::size_t best = 0;
    Time best_t = clocks[0];
    for (std::size_t i = 1; i < slots; ++i) {
      if (clocks[i] < best_t) {
        best_t = clocks[i];
        best = i;
      }
    }
    return best;
  }

  /// Step every lane to successive shared chunk boundaries: `body(lane,
  /// limit)` must process that lane's events with fire_time <= limit.  The
  /// final boundary is exactly `horizon` (no accumulated-rounding overshoot:
  /// boundaries are clamped), matching the per-task run_until(horizon)
  /// cutoff where events at the horizon still execute.
  template <typename Body>
  void run_lockstep(Time horizon, Duration chunk, Body&& body) {
    PSD_REQUIRE(chunk > 0.0, "chunk length must be positive");
    Time limit = 0.0;
    while (limit < horizon) {
      limit = limit + chunk < horizon ? limit + chunk : horizon;
      for (std::size_t l = 0; l < lanes_; ++l) body(l, limit);
    }
  }

 private:
  std::size_t lanes_;
  std::size_t slots_;
  std::vector<Time> times_;  ///< lanes x slots, lane-major.
};

}  // namespace psd
