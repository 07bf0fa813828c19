//===- probe/ProbeEngine.cpp - runtime probe evaluation -------------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "probe/ProbeEngine.h"

#include "support/Format.h"
#include "support/Json.h"

#include <atomic>
#include <cassert>
#include <mutex>

using namespace gpuperf;

int64_t ProbeEventRecord::get(ProbeField F) const {
  switch (F) {
  case ProbeField::PC:
    return PC;
  case ProbeField::Op:
    return Op;
  case ProbeField::Class:
    return Class;
  case ProbeField::Lanes:
    return Lanes;
  case ProbeField::Block:
    return Block;
  case ProbeField::Warp:
    return Warp;
  case ProbeField::Cycle:
    return Cycle;
  case ProbeField::Dual:
    return Dual;
  case ProbeField::Space:
    return Space;
  case ProbeField::Width:
    return Width;
  case ProbeField::Bytes:
    return Bytes;
  case ProbeField::Transactions:
    return Transactions;
  case ProbeField::Serialization:
    return Serialization;
  case ProbeField::Cause:
    return Cause;
  case ProbeField::Slots:
    return Slots;
  case ProbeField::Insts:
    return Insts;
  }
  return 0;
}

ProbeEngine::ProbeEngine(std::vector<ProbeSpec> S) : Specs(std::move(S)) {
  States.resize(Specs.size());
  for (const ProbeSpec &P : Specs) {
    Wanted[static_cast<size_t>(P.Event)] = true;
    // PCReached rides InstIssued records: the simulator only ever emits
    // InstIssued.
    if (P.Event == ProbeEvent::PCReached)
      Wanted[static_cast<size_t>(ProbeEvent::InstIssued)] = true;
  }
}

namespace {

bool matchCmp(ProbeCmp C, int64_t L, int64_t R) {
  switch (C) {
  case ProbeCmp::Eq:
    return L == R;
  case ProbeCmp::Ne:
    return L != R;
  case ProbeCmp::Lt:
    return L < R;
  case ProbeCmp::Le:
    return L <= R;
  case ProbeCmp::Gt:
    return L > R;
  case ProbeCmp::Ge:
    return L >= R;
  }
  return false;
}

void fold(ProbeAgg Agg, ProbeAccum &A, int64_t V) {
  ++A.Count;
  switch (Agg) {
  case ProbeAgg::Count:
    break;
  case ProbeAgg::Sum:
    A.Value += V;
    A.Seen = true;
    break;
  case ProbeAgg::Min:
  case ProbeAgg::Watch: // Watch is min over the event's cycle.
    if (!A.Seen || V < A.Value)
      A.Value = V;
    A.Seen = true;
    break;
  case ProbeAgg::Max:
    if (!A.Seen || V > A.Value)
      A.Value = V;
    A.Seen = true;
    break;
  }
}

void foldMerge(ProbeAgg Agg, ProbeAccum &A, const ProbeAccum &B) {
  A.Count += B.Count;
  if (!B.Seen)
    return;
  switch (Agg) {
  case ProbeAgg::Count:
    break;
  case ProbeAgg::Sum:
    A.Value += B.Value;
    break;
  case ProbeAgg::Min:
  case ProbeAgg::Watch:
    if (!A.Seen || B.Value < A.Value)
      A.Value = B.Value;
    break;
  case ProbeAgg::Max:
    if (!A.Seen || B.Value > A.Value)
      A.Value = B.Value;
    break;
  }
  A.Seen = true;
}

/// The aggregated payload: what count aggregates is the count itself.
int64_t foldInput(const ProbeSpec &S, const ProbeEventRecord &R) {
  switch (S.Agg) {
  case ProbeAgg::Count:
    return 0;
  case ProbeAgg::Watch:
    return R.Cycle;
  case ProbeAgg::Sum:
  case ProbeAgg::Min:
  case ProbeAgg::Max:
    return R.get(S.Value);
  }
  return 0;
}

} // namespace

void ProbeEngine::fire(ProbeEvent E, const ProbeEventRecord &Raw) {
  ProbeEventRecord R = Raw;
  R.Cycle += static_cast<int64_t>(WaveCycleOffset);
  for (size_t I = 0; I < Specs.size(); ++I) {
    const ProbeSpec &S = Specs[I];
    bool Listens = S.Event == E || (S.Event == ProbeEvent::PCReached &&
                                    E == ProbeEvent::InstIssued);
    if (!Listens)
      continue;
    bool Pass = true;
    for (const ProbeFilter &F : S.Filters)
      if (!matchCmp(F.Cmp, R.get(F.Field), F.Value)) {
        Pass = false;
        break;
      }
    if (!Pass)
      continue;
    int64_t V = foldInput(S, R);
    fold(S.Agg, States[I].Total, V);
    if (S.HasKey)
      fold(S.Agg, States[I].Keys[R.get(S.Key)], V);
  }
}

void ProbeEngine::merge(const ProbeEngine &Other) {
  assert(Specs.size() == Other.Specs.size() &&
         "merging probe engines with different specs");
  for (size_t I = 0; I < Specs.size(); ++I) {
    const ProbeAgg Agg = Specs[I].Agg;
    foldMerge(Agg, States[I].Total, Other.States[I].Total);
    for (const auto &[Key, Acc] : Other.States[I].Keys)
      foldMerge(Agg, States[I].Keys[Key], Acc);
  }
}

const ProbeState *ProbeEngine::stateByName(std::string_view Name) const {
  for (size_t I = 0; I < Specs.size(); ++I)
    if (Specs[I].Name == Name)
      return &States[I];
  return nullptr;
}

std::string ProbeEngine::report() const {
  std::string Out;
  for (size_t I = 0; I < Specs.size(); ++I) {
    const ProbeSpec &S = Specs[I];
    const ProbeState &St = States[I];
    Out += formatString("probe %s: event=%s aggregation=%s count=%llu",
                        S.Name.c_str(), probeEventName(S.Event),
                        probeAggName(S.Agg),
                        static_cast<unsigned long long>(St.Total.Count));
    if (S.Agg != ProbeAgg::Count) {
      if (St.Total.Seen)
        Out += formatString(" value=%lld",
                            static_cast<long long>(St.Total.Value));
      else
        Out += " value=-"; // min/max/watch with no matching event
    }
    Out += "\n";
    for (const auto &[Key, Acc] : St.Keys) {
      Out += formatString(
          "  key %s: count=%llu",
          renderProbeKey(S.HasKey ? S.Key : ProbeField::PC, Key).c_str(),
          static_cast<unsigned long long>(Acc.Count));
      if (S.Agg != ProbeAgg::Count)
        Out += formatString(" value=%lld",
                            static_cast<long long>(Acc.Value));
      Out += "\n";
    }
  }
  return Out;
}

void ProbeEngine::writeProbesValue(JsonWriter &W) const {
  W.beginObject();
  W.kv("version", ProbesObjectVersion);
  for (size_t I = 0; I < Specs.size(); ++I) {
    const ProbeSpec &S = Specs[I];
    const ProbeState &St = States[I];
    W.key(S.Name);
    W.beginObject();
    W.kv("event", probeEventName(S.Event));
    W.kv("aggregation", probeAggName(S.Agg));
    W.kv("count", St.Total.Count);
    // "value" is emitted whenever defined: always for count (the count
    // itself) and sum (empty sum is 0); for min/max/watch only once an
    // event matched -- so a probe that stops matching shows up as a
    // missing key in perfdiff, not a fake 0.
    if (S.Agg == ProbeAgg::Count)
      W.kv("value", St.Total.Count);
    else if (S.Agg == ProbeAgg::Sum || St.Total.Seen)
      W.kv("value", St.Total.Value);
    if (S.HasKey) {
      W.key("keys");
      W.beginObject();
      for (const auto &[Key, Acc] : St.Keys) {
        W.key(renderProbeKey(S.Key, Key));
        if (S.Agg == ProbeAgg::Count)
          W.value(Acc.Count);
        else
          W.value(Acc.Value);
      }
      W.endObject();
    }
    W.endObject();
  }
  W.endObject();
}

std::string gpuperf::probeRecordJson(const ProbeEngine &E, int SchemaVersion,
                                     const std::string &Machine,
                                     const std::string &Kernel) {
  JsonWriter W;
  W.beginObject();
  W.kv("schema_version", SchemaVersion);
  W.kv("record", "probes");
  W.kv("machine", Machine);
  W.kv("kernel", Kernel);
  W.key("probes");
  E.writeProbesValue(W);
  W.endObject();
  return W.take();
}

//===----------------------------------------------------------------------===//
// Process-wide sink (BenchRun --probe)
//===----------------------------------------------------------------------===//

namespace {
std::atomic<ProbeEngine *> ProcessEngine{nullptr};
std::mutex ProcessEngineMutex;
} // namespace

void gpuperf::setProcessProbeEngine(ProbeEngine *E) {
  std::lock_guard<std::mutex> Lock(ProcessEngineMutex);
  ProcessEngine.store(E, std::memory_order_release);
}

ProbeEngine *gpuperf::processProbeEngine() {
  return ProcessEngine.load(std::memory_order_acquire);
}

void gpuperf::mergeIntoProcessProbeEngine(const ProbeEngine &Partial) {
  std::lock_guard<std::mutex> Lock(ProcessEngineMutex);
  ProbeEngine *E = ProcessEngine.load(std::memory_order_relaxed);
  if (!E || E->specs().size() != Partial.specs().size())
    return;
  E->merge(Partial);
}
