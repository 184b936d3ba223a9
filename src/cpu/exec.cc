#include "cpu/exec.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ltp {

FuPool::FuPool(const FuConfig &cfg)
{
    auto init = [this](Group g, int units) {
        sim_assert(units > 0);
        groups_[g].busyUntil.assign(units, 0);
    };
    init(kAlu, cfg.alu);
    init(kMul, cfg.mul);
    init(kFp, cfg.fp);
    init(kLd, cfg.ld);
    init(kSt, cfg.st);
}

FuPool::Group
FuPool::groupOf(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Nop:
        return kAlu;
      case OpClass::IntMul:
      case OpClass::IntDiv:
        return kMul;
      case OpClass::FpAlu:
      case OpClass::FpMul:
      case OpClass::FpDiv:
      case OpClass::FpSqrt:
        return kFp;
      case OpClass::Load:
        return kLd;
      case OpClass::Store:
        return kSt;
      default:
        panic("unknown op class %d", static_cast<int>(c));
    }
}

bool
FuPool::canIssue(OpClass c, Cycle now) const
{
    const GroupState &g = groups_[groupOf(c)];
    // The per-cycle issue count resets implicitly when the cycle moves
    // on (stale stamp), so no per-cycle begin pass is needed.
    int issued = g.stamp == now ? g.issuedThisCycle : 0;
    if (issued >= static_cast<int>(g.busyUntil.size()))
        return false;
    for (Cycle busy : g.busyUntil)
        if (busy <= now)
            return true;
    return false;
}

Cycle
FuPool::freeAt(OpClass c) const
{
    const GroupState &g = groups_[groupOf(c)];
    return *std::min_element(g.busyUntil.begin(), g.busyUntil.end());
}

int
FuPool::issue(OpClass c, Cycle now)
{
    GroupState &g = groups_[groupOf(c)];
    if (g.stamp != now) {
        g.stamp = now;
        g.issuedThisCycle = 0;
    }
    const OpClassInfo &info = opInfo(c);
    for (Cycle &busy : g.busyUntil) {
        if (busy <= now) {
            g.issuedThisCycle += 1;
            if (!info.pipelined)
                busy = now + info.latency;
            return info.latency;
        }
    }
    panic("FuPool::issue without canIssue");
}

} // namespace ltp
