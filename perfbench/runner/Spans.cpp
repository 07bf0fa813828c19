//===- perfbench/runner/Spans.cpp - in-memory layer spans -----------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "runner/Spans.h"

#include <cstdio>

using namespace perfbench;

SpanLog &SpanLog::get() {
  static SpanLog Log;
  return Log;
}

void SpanLog::enable() {
  Enabled = true;
  Origin = std::chrono::steady_clock::now();
  Spans.clear();
  Open.clear();
  Counters.clear();
}

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Origin)
      .count();
}

int SpanLog::begin(const char *Name) {
  SpanRecord R;
  R.Name = Name;
  R.Parent = Open.empty() ? -1 : Open.back();
  R.Op = CurrentOp;
  R.Start = now();
  Spans.push_back(R);
  int Id = static_cast<int>(Spans.size() - 1);
  Open.push_back(Id);
  return Id;
}

void SpanLog::end(int Id) {
  Spans[static_cast<size_t>(Id)].End = now();
  // Spans close in LIFO order; tolerate a log re-enabled mid-span.
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

double SpanLog::counter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0.0 : It->second;
}

std::map<std::string, SpanLog::SelfTime> SpanLog::selfTimes() const {
  std::vector<double> ChildSeconds(Spans.size(), 0.0);
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      ChildSeconds[static_cast<size_t>(S.Parent)] += S.End - S.Start;
  std::map<std::string, SelfTime> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    SelfTime &T = Out[Spans[I].Name];
    T.Seconds += Spans[I].End - Spans[I].Start - ChildSeconds[I];
    T.Calls += 1;
  }
  return Out;
}

bool SpanLog::writeJsonLines(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const SpanRecord &S : Spans)
    std::fprintf(F,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d,\"op\":%lld}\n",
                 S.Name, S.Start, S.End, S.Parent,
                 static_cast<long long>(S.Op));
  return std::fclose(F) == 0;
}
