//===- eva/api/Valuation.h - Typed named values -----------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Valuation maps input/output names to typed values: a plaintext vector,
/// a broadcast scalar, or a ciphertext. It replaces the stringly-typed
/// `std::map<std::string, std::vector<double>>` plumbing of the individual
/// executors: a Valuation validates itself against a ProgramSignature with
/// precise diagnostics (missing, extra, misnamed, wrong-length, non-finite,
/// wrong ciphertext scale/level) *before* execution, so a malformed request
/// surfaces as an Expected<> error instead of a fatalError abort inside a
/// backend.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_API_VALUATION_H
#define EVA_API_VALUATION_H

#include "eva/api/ProgramSignature.h"
#include "eva/ckks/Ciphertext.h"
#include "eva/support/Error.h"

#include <map>
#include <string>
#include <variant>
#include <vector>

namespace eva {

/// Named typed values flowing into or out of a Runner.
class Valuation {
public:
  /// One value: a plaintext vector (replicated if shorter than vec_size),
  /// a broadcast scalar, or a ciphertext.
  using Value = std::variant<std::vector<double>, double, Ciphertext>;

  Valuation() = default;

  /// Wraps a legacy name -> vector map (every entry a plaintext vector).
  static Valuation fromMap(const std::map<std::string, std::vector<double>> &M);

  Valuation &set(std::string Name, std::vector<double> V);
  Valuation &set(std::string Name, double Scalar);
  Valuation &set(std::string Name, Ciphertext Ct);
  /// Convenience for brace-initialized slot lists.
  Valuation &set(std::string Name, std::initializer_list<double> V);

  bool has(const std::string &Name) const { return Values.count(Name) != 0; }
  size_t size() const { return Values.size(); }
  bool empty() const { return Values.empty(); }

  /// The stored value; nullptr if \p Name is absent.
  const Value *find(const std::string &Name) const;

  bool isVector(const std::string &Name) const;
  bool isScalar(const std::string &Name) const;
  bool isCipher(const std::string &Name) const;

  /// Typed accessors. Accessing an absent name or the wrong kind is a fatal
  /// error (use find()/is*() to probe first).
  const std::vector<double> &vector(const std::string &Name) const;
  double scalar(const std::string &Name) const;
  const Ciphertext &cipher(const std::string &Name) const;

  /// The plain value of \p Name as a vector, by value (a scalar becomes a
  /// broadcast length-1 vector). Fatal on a ciphertext or absent entry.
  std::vector<double> plainVec(const std::string &Name) const;

  /// Plain entries as a name -> vector map (scalars become length-1
  /// vectors). Ciphertext entries are a fatal error — callers converting to
  /// the legacy map form must hold a plain-only valuation.
  std::map<std::string, std::vector<double>> toMap() const;

  /// Iteration (name-ordered).
  auto begin() const { return Values.begin(); }
  auto end() const { return Values.end(); }

private:
  std::map<std::string, Value> Values;
};

/// Parses one `name=v1,v2,...` entry (the `--in` syntax of `evac run` and
/// `evacall`) into \p Into. Returns false, leaving \p Into unchanged, on a
/// missing name, a value that is not a number, or an empty list.
bool parseInlineInput(const char *Spec, Valuation &Into);

/// Validates \p V as the input set of a program with signature \p Sig.
/// Returns success, or one diagnostic listing *every* problem found:
/// missing/extra/misnamed names (with a did-you-mean suggestion), wrong
/// vector lengths, non-finite values (the CKKS encoder's float->integer
/// rounding is undefined for NaN/Inf, and the reference semantics shares
/// the contract), and wrong ciphertext scale/level.
Status validateInputs(const ProgramSignature &Sig, const Valuation &V);

} // namespace eva

#endif // EVA_API_VALUATION_H
