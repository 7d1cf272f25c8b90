//===- trace.cpp - In-memory spans for the traced run ----------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

using namespace evabench;

uint64_t Tracer::record(std::string Name, double Start, double End,
                        uint64_t Op, uint64_t Parent, uint64_t Id) {
  eva::LockGuard Lock(M);
  if (Id == 0)
    Id = ++LastId;
  Spans.push_back({Id, Parent, Op, std::move(Name), Start, End});
  return Id;
}

Tracer::Summary Tracer::summarize() const {
  eva::LockGuard Lock(M);
  std::map<uint64_t, double> ChildSeconds;
  for (const SpanRecord &S : Spans)
    if (S.Parent != 0)
      ChildSeconds[S.Parent] += S.End - S.Start;
  Summary Out;
  for (const SpanRecord &S : Spans) {
    double Duration = S.End - S.Start;
    double Self = Duration - ChildSeconds[S.Id];
    Out.SelfSeconds[S.Name] += Self;
    if (S.Parent == 0 && Duration > 0) {
      Out.RootDurations.push_back(Duration);
      Out.MaxUncoveredFrac = std::max(Out.MaxUncoveredFrac, Self / Duration);
    }
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  eva::LockGuard Lock(M);
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << "[\n";
  char Buf[160];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    // Span names are fixed identifiers from this benchmark: no escaping.
    std::snprintf(Buf, sizeof(Buf),
                  "\", \"id\": %llu, \"parent\": %llu, \"op\": %llu, "
                  "\"start\": %.9f, \"end\": %.9f}%s\n",
                  static_cast<unsigned long long>(S.Id),
                  static_cast<unsigned long long>(S.Parent),
                  static_cast<unsigned long long>(S.Op), S.Start, S.End,
                  I + 1 == Spans.size() ? "" : ",");
    Out << "  {\"name\": \"" << S.Name << Buf;
  }
  Out << "]\n";
  return static_cast<bool>(Out);
}
