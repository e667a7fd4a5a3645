#include "analysis/access_model.hpp"

#include <algorithm>

namespace clflow::analysis {

namespace {

/// acc += a * b; false on overflow.
bool MulAdd(std::int64_t& acc, std::int64_t a, std::int64_t b) {
  std::int64_t p = 0;
  return !__builtin_mul_overflow(a, b, &p) &&
         !__builtin_add_overflow(acc, p, &acc);
}

std::int64_t Coeff(const Affine& a, int var) {
  for (const auto& [v, c] : a.terms) {
    if (v == var) return c;
  }
  return 0;
}

/// The extreme of a form over parameters >= 1: the minimum when no
/// coefficient is negative, the maximum when none is positive.
std::optional<std::int64_t> Extreme(const Affine& a, bool want_max) {
  std::int64_t v = a.constant;
  for (const auto& [var, c] : a.terms) {
    if ((c > 0) == want_max || !MulAdd(v, c, 1)) return std::nullopt;
  }
  return v;
}

/// Per dimension: the write's element equals the read's when
/// cw * x + delta == cr * y, x and y the writing and reading iterations.
struct Equation {
  std::int64_t cw = 0, cr = 0, delta = 0;
};

/// `fixed` variables take their value and every other variable but the
/// loop's must cancel (the same iteration of other loops, the same
/// parameters); nullopt when a dimension is not affine or does not cancel.
std::optional<std::vector<Equation>> Equate(
    const AccessEvent& w, const AccessEvent& r, int var,
    const std::vector<std::pair<int, std::int64_t>>& fixed) {
  std::vector<Equation> eqs;
  for (std::size_t d = 0; d < w.index.size(); ++d) {
    const MaybeAffine diff = Sum(w.index[d], r.index[d], -1);
    if (!diff) return std::nullopt;
    Equation eq{Coeff(*w.index[d], var), Coeff(*r.index[d], var),
                diff->constant};
    for (const auto& [v, c] : diff->terms) {
      if (v == var) continue;
      const auto it = std::find_if(fixed.begin(), fixed.end(),
                                   [v = v](const auto& f) { return f.first == v; });
      if (it == fixed.end() || !MulAdd(eq.delta, c, it->second)) {
        return std::nullopt;
      }
    }
    eqs.push_back(eq);
  }
  return eqs;
}

/// The first lane y that reads what another lane x writes, as y - x.
std::optional<std::int64_t> LaneDistance(const std::vector<Equation>& eqs,
                                         std::int64_t first,
                                         std::int64_t lanes) {
  for (__int128 x = first; x < __int128{first} + lanes; ++x) {
    for (__int128 y = first; y < __int128{first} + lanes; ++y) {
      if (x != y && std::all_of(eqs.begin(), eqs.end(), [&](const auto& eq) {
            return eq.cw * x + eq.delta == eq.cr * y;
          })) {
        return static_cast<std::int64_t>(y - x);
      }
    }
  }
  return std::nullopt;
}

/// The one distance that relates every dimension, if it is >= 1.
std::optional<std::int64_t> CarriedDistance(const std::vector<Equation>& eqs) {
  std::optional<std::int64_t> distance;
  for (const Equation& eq : eqs) {
    if (eq.cw != eq.cr) return std::nullopt;
    if (eq.cw == 0) {
      if (eq.delta != 0) return std::nullopt;  // provably distinct elements
      continue;
    }
    const __int128 dist = __int128{eq.delta} / eq.cw;
    if (__int128{eq.delta} % eq.cw != 0 || (distance && *distance != dist)) {
      return std::nullopt;  // the elements never coincide
    }
    distance = static_cast<std::int64_t>(dist);
  }
  if (!distance || *distance < 1) return std::nullopt;
  return distance;
}

}  // namespace

MaybeAffine Sum(const MaybeAffine& a, const MaybeAffine& b, std::int64_t k) {
  if (!a || !b) return std::nullopt;
  Affine r = *a;
  bool ok = MulAdd(r.constant, b->constant, k);
  for (const auto& [v, c] : b->terms) {
    auto it = std::lower_bound(
        r.terms.begin(), r.terms.end(), v,
        [](const auto& term, int id) { return term.first < id; });
    if (it == r.terms.end() || it->first != v) it = r.terms.insert(it, {v, 0});
    ok = ok && MulAdd(it->second, c, k);
    if (it->second == 0) r.terms.erase(it);
  }
  return ok ? MaybeAffine(std::move(r)) : std::nullopt;
}

MaybeAffine Scale(const MaybeAffine& a, std::int64_t k) {
  return Sum(Affine::Const(0), a, k);
}

MaybeAffine Product(const MaybeAffine& a, const MaybeAffine& b) {
  if (a && a->IsConst()) return Scale(b, a->constant);
  if (b && b->IsConst()) return Scale(a, b->constant);
  return std::nullopt;
}

// --- AccessStream -------------------------------------------------------------

int AccessStream::AddVar(std::string name) {
  vars.push_back(std::move(name));
  return static_cast<int>(vars.size()) - 1;
}

int AccessStream::AddArray(std::string name, std::vector<MaybeAffine> dims) {
  arrays.push_back(std::move(name));
  extents.push_back(std::move(dims));
  return static_cast<int>(arrays.size()) - 1;
}

void AccessStream::BeginLoop(int var, const MaybeAffine& lo,
                             const MaybeAffine& hi, std::int64_t lanes) {
  const int depth = loop_ < 0 ? 0 : loops[loop_].depth + 1;
  loops.push_back({var, ParamBound(lo, loop_, false),
                   ParamBound(hi, loop_, true), lanes, loop_, depth,
                   events.size(), events.size()});
  loop_ = static_cast<int>(loops.size()) - 1;
}

void AccessStream::EndLoop() {
  loops[loop_].end = events.size();
  loop_ = loops[loop_].parent;
}

void AccessStream::If() {
  events.emplace_back().kind = AccessEvent::kIf;
  PushGuard();
}

void AccessStream::Else() { events.emplace_back().kind = AccessEvent::kElse; }

void AccessStream::EndIf() {
  events.emplace_back().kind = AccessEvent::kEndIf;
  PopGuard();
}

void AccessStream::PushGuard() {
  guards_.push_back(loop_ < 0 ? 0 : loops[loop_].depth + 1);
}

void AccessStream::PopGuard() { guards_.pop_back(); }

std::size_t AccessStream::Access(bool write, int array,
                                 std::vector<MaybeAffine> index, int loc) {
  events.push_back({write ? AccessEvent::kWrite : AccessEvent::kRead, array,
                    std::move(index), loop_,
                    guards_.empty() ? -1 : guards_.back(), loc});
  return events.size() - 1;
}

int AccessStream::Binder(int var, int loop) const {
  while (loop >= 0 && loops[loop].var != var) loop = loops[loop].parent;
  return loop;
}

MaybeAffine AccessStream::ParamBound(const MaybeAffine& a, int loop,
                                     bool want_max) const {
  if (!a) return std::nullopt;
  MaybeAffine r = Affine::Const(a->constant);
  for (const auto& [var, c] : a->terms) {
    const int l = Binder(var, loop);
    r = l < 0 ? Sum(r, Affine::Var(var), c)
              : Sum(r, (c > 0) == want_max ? loops[l].hi : loops[l].lo, c);
  }
  return r;
}

// --- The three checks -----------------------------------------------------------

std::vector<DimBound> CheckBounds(const AccessStream& stream,
                                  std::size_t event) {
  const AccessEvent& e = stream.events[event];
  std::vector<DimBound> out;
  if (e.kind > AccessEvent::kWrite || e.guard >= 0) return out;
  const std::vector<MaybeAffine>& extents = stream.extents[e.array];
  for (std::size_t d = 0; d < std::min(e.index.size(), extents.size()); ++d) {
    DimBound b{d, false, 0, stream.ParamBound(e.index[d], e.loop, false),
               stream.ParamBound(e.index[d], e.loop, true)};
    const auto lo_max = b.lo ? Extreme(*b.lo, true) : std::nullopt;
    const MaybeAffine& extent = extents[d];
    if (lo_max && *lo_max < 0) {
      b.below = true;
      b.value = *lo_max;
    } else if (!extent ||
               std::any_of(extent->terms.begin(), extent->terms.end(),
                           [&](const auto& t) {
                             return stream.Binder(t.first, e.loop) >= 0;
                           })) {
      continue;  // an extent over this nest's loop variables bounds nothing
    } else {
      const MaybeAffine over = Sum(b.hi, extent, -1);
      const auto over_min = over ? Extreme(*over, false) : std::nullopt;
      if (!over_min || *over_min < 0) continue;
      b.value = *over_min;
    }
    out.push_back(std::move(b));
  }
  return out;
}

std::vector<DependencePair> Dependences(const AccessStream& stream,
                                        Dependence kind) {
  const bool lanes = kind == Dependence::kLaneCollision;
  std::vector<DependencePair> out;
  for (std::size_t li = 0; li < stream.loops.size(); ++li) {
    const AccessLoop& loop = stream.loops[li];
    std::vector<std::pair<int, std::int64_t>> fixed;
    if (lanes) {
      if (loop.lanes < 2 || !loop.lo || !loop.lo->IsConst()) continue;
      // A collision on the first iteration of the enclosing loops is one.
      for (int p = loop.parent; p >= 0; p = stream.loops[p].parent) {
        const AccessLoop& outer = stream.loops[p];
        if (outer.lo && outer.lo->IsConst()) {
          fixed.emplace_back(outer.var, outer.lo->constant);
        }
      }
    }
    std::vector<int> reported;
    for (std::size_t w = loop.begin; w < loop.end; ++w) {
      for (std::size_t r = loop.begin; r < loop.end; ++r) {
        const AccessEvent& we = stream.events[w];
        const AccessEvent& re = stream.events[r];
        if (we.kind != AccessEvent::kWrite || re.kind != AccessEvent::kRead ||
            we.array != re.array || we.index.size() != re.index.size() ||
            std::count(reported.begin(), reported.end(), we.array) != 0 ||
            (lanes ? we.index == re.index
                   : we.guard > loop.depth || re.guard > loop.depth)) {
          continue;
        }
        const auto eqs = Equate(we, re, loop.var, fixed);
        if (!eqs) continue;
        const auto distance =
            lanes ? LaneDistance(*eqs, loop.lo->constant, loop.lanes)
                  : CarriedDistance(*eqs);
        if (!distance) continue;
        reported.push_back(we.array);
        out.push_back({static_cast<int>(li), w, r, *distance});
      }
    }
  }
  return out;
}

std::vector<InitState> CheckInit(const AccessStream& stream) {
  std::vector<InitState> state(stream.arrays.size());
  std::vector<char> stored(stream.arrays.size(), 0);
  std::vector<std::vector<char>> entry;  // per open if: the set before it
  for (std::size_t i = 0; i < stream.events.size(); ++i) {
    const AccessEvent& e = stream.events[i];
    if (e.kind == AccessEvent::kIf) {
      entry.push_back(stored);
    } else if (e.kind == AccessEvent::kElse) {
      std::swap(stored, entry.back());  // keep then's set, restart from entry
    } else if (e.kind == AccessEvent::kEndIf) {
      for (std::size_t a = 0; a < stored.size(); ++a) stored[a] |= entry.back()[a];
      entry.pop_back();
    } else if (e.kind == AccessEvent::kWrite) {
      stored[e.array] = 1;
      if (state[e.array].first_write == InitState::kNone) {
        state[e.array].first_write = i;
      }
    } else {
      InitState& s = state[e.array];
      s.read = true;
      if (!stored[e.array] && (s.unreached_read == InitState::kNone ||
                               e.loc < stream.events[s.unreached_read].loc)) {
        s.unreached_read = i;
      }
    }
  }
  return state;
}

}  // namespace clflow::analysis
