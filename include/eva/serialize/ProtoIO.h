//===- eva/serialize/ProtoIO.h - EVA program (de)serialization --*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes EVA programs in the Protocol Buffers schema of Figure 1:
///
/// \code
///   message Object      { uint64 id = 1; }
///   message Instruction { Object output = 1; OpCode op_code = 2;
///                         repeated Object args = 3;
///                         /* extensions: */ sint64 rotation = 4;
///                         int32 rescale_bits = 5; double attr_scale = 6; }
///   message Vector      { repeated double elements = 1; } // packed
///   message Input       { Object obj = 1; ObjectType type = 2;
///                         double scale = 3; string name = 15; }
///   message Constant    { Object obj = 1; ObjectType type = 2;
///                         double scale = 3; Vector vec = 4; }
///   message Output      { Object obj = 1; double scale = 2;
///                         string name = 15; }
///   message Program     { uint64 vec_size = 1;
///                         repeated Constant constants = 2;
///                         repeated Input inputs = 3;
///                         repeated Output outputs = 4;
///                         repeated Instruction insts = 5;
///                         string name = 6; }
/// \endcode
///
/// Fields 4-6/15 are extensions of the paper's schema carrying attributes
/// the paper models as instruction arguments (rotation counts, rescale
/// divisors) and the I/O names used by the runtime API; readers tolerate
/// their absence and ignore unknown fields, so the format stays wire-
/// compatible with the paper's.
///
/// The reader runs through FieldReader (Wire.h): a known field sent with
/// another wire type, or bytes that end inside a field, are refused. So is
/// a number the IR cannot hold: a rotation outside int32, a rescale value
/// outside int, a constant type other than SCALAR_CONST or VECTOR_CONST,
/// and an input type other than a plain or cipher scalar or vector. An
/// absent type keeps its default (VECTOR_CONST, VECTOR_CIPHER).
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SERIALIZE_PROTOIO_H
#define EVA_SERIALIZE_PROTOIO_H

#include "eva/ir/Program.h"
#include "eva/support/Error.h"

#include <memory>
#include <string>
#include <string_view>

namespace eva {

/// Serializes \p P to proto3 wire format. Instructions are emitted in
/// forward topological order so deserialization is single-pass.
std::string serializeProgram(const Program &P);

/// Parses a program from wire format; fails with a diagnostic on malformed
/// or semantically invalid input (dangling ids, bad opcodes, cycles), and
/// runs the structural verifier on everything it accepts.
Expected<std::unique_ptr<Program>> deserializeProgram(std::string_view Data);

/// Convenience file I/O. saveProgram writes wire format.
Status saveProgram(const Program &P, const std::string &Path);
/// Reads a program file in either format: a textual listing (it starts
/// with the `program ` header, see TextFormat.h) or wire format. Fails with
/// "cannot open PATH", or with the parser's diagnostic, which does not name
/// the file.
Expected<std::unique_ptr<Program>> loadProgram(const std::string &Path);

} // namespace eva

#endif // EVA_SERIALIZE_PROTOIO_H
