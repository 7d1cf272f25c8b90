//===- Valuation.cpp - Typed named values --------------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/api/Valuation.h"

#include "eva/support/Common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

using namespace eva;

namespace {

const char *kindOf(const Valuation::Value &V) {
  if (std::holds_alternative<Ciphertext>(V))
    return "ciphertext";
  return std::holds_alternative<double>(V) ? "scalar" : "vector";
}

} // namespace

Valuation
Valuation::fromMap(const std::map<std::string, std::vector<double>> &M) {
  Valuation V;
  for (const auto &[Name, Values] : M)
    V.set(Name, Values);
  return V;
}

Valuation &Valuation::set(std::string Name, std::vector<double> V) {
  Values.insert_or_assign(std::move(Name), Value(std::move(V)));
  return *this;
}

Valuation &Valuation::set(std::string Name, double Scalar) {
  Values.insert_or_assign(std::move(Name), Value(Scalar));
  return *this;
}

Valuation &Valuation::set(std::string Name, Ciphertext Ct) {
  Values.insert_or_assign(std::move(Name), Value(std::move(Ct)));
  return *this;
}

Valuation &Valuation::set(std::string Name, std::initializer_list<double> V) {
  return set(std::move(Name), std::vector<double>(V));
}

const Valuation::Value *Valuation::find(const std::string &Name) const {
  auto It = Values.find(Name);
  return It == Values.end() ? nullptr : &It->second;
}

bool Valuation::isVector(const std::string &Name) const {
  const Value *V = find(Name);
  return V && std::holds_alternative<std::vector<double>>(*V);
}

bool Valuation::isScalar(const std::string &Name) const {
  const Value *V = find(Name);
  return V && std::holds_alternative<double>(*V);
}

bool Valuation::isCipher(const std::string &Name) const {
  const Value *V = find(Name);
  return V && std::holds_alternative<Ciphertext>(*V);
}

const std::vector<double> &Valuation::vector(const std::string &Name) const {
  const Value *V = find(Name);
  if (!V)
    fatalError("valuation has no entry '" + Name + "'");
  if (const auto *Vec = std::get_if<std::vector<double>>(V))
    return *Vec;
  fatalError("valuation entry '" + Name + "' is a " + kindOf(*V) +
             ", not a vector");
}

double Valuation::scalar(const std::string &Name) const {
  const Value *V = find(Name);
  if (!V)
    fatalError("valuation has no entry '" + Name + "'");
  if (const auto *S = std::get_if<double>(V))
    return *S;
  fatalError("valuation entry '" + Name + "' is not a scalar");
}

const Ciphertext &Valuation::cipher(const std::string &Name) const {
  const Value *V = find(Name);
  if (!V)
    fatalError("valuation has no entry '" + Name + "'");
  if (const auto *Ct = std::get_if<Ciphertext>(V))
    return *Ct;
  fatalError("valuation entry '" + Name + "' is not a ciphertext");
}

std::vector<double> Valuation::plainVec(const std::string &Name) const {
  const Value *V = find(Name);
  if (!V)
    fatalError("valuation has no entry '" + Name + "'");
  if (const auto *Vec = std::get_if<std::vector<double>>(V))
    return *Vec;
  if (const auto *S = std::get_if<double>(V))
    return {*S};
  fatalError("valuation entry '" + Name + "' is a ciphertext, not plain");
}

std::map<std::string, std::vector<double>> Valuation::toMap() const {
  std::map<std::string, std::vector<double>> Out;
  for (const auto &[Name, V] : Values) {
    if (const auto *Vec = std::get_if<std::vector<double>>(&V))
      Out.emplace(Name, *Vec);
    else if (const auto *S = std::get_if<double>(&V))
      Out.emplace(Name, std::vector<double>{*S});
    else
      fatalError("toMap on a valuation with ciphertext entry '" + Name + "'");
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

namespace {

/// Levenshtein distance, used for the misnamed-input suggestion.
size_t editDistance(const std::string &A, const std::string &B) {
  std::vector<size_t> Row(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Row[J] = J;
  for (size_t I = 1; I <= A.size(); ++I) {
    size_t Diag = Row[0];
    Row[0] = I;
    for (size_t J = 1; J <= B.size(); ++J) {
      size_t Next = std::min({Row[J] + 1, Row[J - 1] + 1,
                              Diag + (A[I - 1] == B[J - 1] ? 0 : 1)});
      Diag = Row[J];
      Row[J] = Next;
    }
  }
  return Row[B.size()];
}

/// The declared input closest to \p Name, if it is close enough to be a
/// plausible typo (distance <= 2 and less than half the name's length).
const IoSpec *closestInput(const ProgramSignature &Sig,
                           const std::string &Name) {
  const IoSpec *Best = nullptr;
  size_t BestDist = 3;
  for (const IoSpec &Spec : Sig.Inputs) {
    size_t D = editDistance(Name, Spec.Name);
    if (D < BestDist && D < std::max(Name.size(), Spec.Name.size())) {
      BestDist = D;
      Best = &Spec;
    }
  }
  return Best;
}

} // namespace

bool eva::parseInlineInput(const char *Spec, Valuation &Into) {
  const char *Eq = std::strchr(Spec, '=');
  if (!Eq || Eq == Spec)
    return false;
  std::vector<double> Values;
  const char *P = Eq + 1;
  while (*P) {
    char *End = nullptr;
    double V = std::strtod(P, &End);
    if (End == P)
      return false;
    Values.push_back(V);
    P = End;
    if (*P == ',')
      ++P;
    else if (*P)
      return false;
  }
  if (Values.empty())
    return false;
  Into.set(std::string(Spec, Eq - Spec), std::move(Values));
  return true;
}

Status eva::validateInputs(const ProgramSignature &Sig, const Valuation &V) {
  std::vector<std::string> Problems;

  for (const IoSpec &Spec : Sig.Inputs) {
    const Valuation::Value *Val = V.find(Spec.Name);
    if (!Val) {
      Problems.push_back("missing " +
                         std::string(Spec.isCipher() ? "cipher" : "plain") +
                         " input '" + Spec.Name + "' (scale 2^" +
                         std::to_string(static_cast<long long>(Spec.LogScale)) +
                         ")");
      continue;
    }

    if (const auto *Ct = std::get_if<Ciphertext>(Val)) {
      if (!Spec.isCipher()) {
        Problems.push_back("input '" + Spec.Name +
                           "' is plain but a ciphertext was supplied");
        continue;
      }
      if (Ct->size() != 2)
        Problems.push_back("ciphertext input '" + Spec.Name +
                           "' must have exactly 2 polynomials, has " +
                           std::to_string(Ct->size()));
      if (Spec.Level != 0 && Ct->primeCount() != Spec.Level)
        Problems.push_back("ciphertext input '" + Spec.Name + "' is at " +
                           std::to_string(Ct->primeCount()) +
                           " primes, expected the full data chain (" +
                           std::to_string(Spec.Level) + ")");
      if (Ct->Scale != std::exp2(Spec.LogScale))
        Problems.push_back("ciphertext input '" + Spec.Name +
                           "' scale does not match the program's 2^" +
                           std::to_string(
                               static_cast<long long>(Spec.LogScale)));
      continue;
    }

    // Plain vector or scalar entry (scalars are length-1 broadcasts and
    // always divide vec_size).
    const std::vector<double> *Vec = std::get_if<std::vector<double>>(Val);
    double ScalarV = Vec ? 0 : std::get<double>(*Val);
    if (Vec) {
      if (Vec->empty()) {
        Problems.push_back("input '" + Spec.Name + "' is empty");
        continue;
      }
      if (Vec->size() > Sig.VecSize)
        Problems.push_back("input '" + Spec.Name + "': length " +
                           std::to_string(Vec->size()) +
                           " exceeds vec_size " + std::to_string(Sig.VecSize));
      else if (Sig.VecSize % Vec->size() != 0)
        Problems.push_back("input '" + Spec.Name + "': length " +
                           std::to_string(Vec->size()) +
                           " does not divide vec_size " +
                           std::to_string(Sig.VecSize) +
                           " (shorter inputs are replicated)");
    }
    if (Vec) {
      for (size_t I = 0; I < Vec->size(); ++I)
        if (!std::isfinite((*Vec)[I])) {
          Problems.push_back("input '" + Spec.Name +
                             "': non-finite value at slot " +
                             std::to_string(I));
          break;
        }
    } else if (!std::isfinite(ScalarV)) {
      Problems.push_back("input '" + Spec.Name + "': non-finite value");
    }
  }

  // Entries the program does not declare: misnamed (with a suggestion when
  // a declared input is a close match) or plain extra.
  for (const auto &[Name, Val] : V) {
    if (Sig.findInput(Name))
      continue;
    std::string P = "'" + Name + "' (" + kindOf(Val) +
                    ") is not an input of program '" + Sig.ProgramName + "'";
    if (const IoSpec *Close = closestInput(Sig, Name))
      P += " — did you mean '" + Close->Name + "'?";
    Problems.push_back(std::move(P));
  }

  if (Problems.empty())
    return Status::success();
  std::string Message = "program '" + Sig.ProgramName + "': ";
  for (size_t I = 0; I < Problems.size(); ++I) {
    if (I)
      Message += "; ";
    Message += Problems[I];
  }
  return Status::error(std::move(Message));
}
