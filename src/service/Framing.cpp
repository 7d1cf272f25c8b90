//===- Framing.cpp - Length-prefixed socket framing ----------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/service/Framing.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

using namespace eva;

namespace {

/// Writes all \p Count buffers of \p Iov with one sendmsg per attempt,
/// looping over partial writes and EINTR. One call per frame matters: a
/// separate small header send waits out Nagle plus the peer's delayed ACK
/// (about 40 ms) before the payload may follow.
/// MSG_NOSIGNAL: a peer that disconnected mid-exchange must surface as an
/// EPIPE error on this connection, not a process-killing SIGPIPE — one
/// vanishing tenant cannot be allowed to take down the daemon.
Status writeAll(int Fd, iovec *Iov, size_t Count) {
  for (;;) {
    while (Count > 0 && Iov->iov_len == 0) {
      ++Iov;
      --Count;
    }
    if (Count == 0)
      return Status::success();
    msghdr Msg{};
    Msg.msg_iov = Iov;
    Msg.msg_iovlen = Count;
    ssize_t N = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Status::error(std::string("write failed: ") +
                           std::strerror(errno));
    }
    // Consume the bytes sent; the write may stop inside any buffer.
    for (size_t Sent = static_cast<size_t>(N); Sent > 0;) {
      size_t Step = std::min(Sent, Iov->iov_len);
      Iov->iov_base = static_cast<char *>(Iov->iov_base) + Step;
      Iov->iov_len -= Step;
      Sent -= Step;
      if (Iov->iov_len == 0) {
        ++Iov;
        --Count;
      }
    }
  }
}

/// Reads exactly \p Size bytes. \p SawAnyByte distinguishes a clean EOF at
/// a frame boundary from truncation inside a frame.
Status readAll(int Fd, char *Data, size_t Size, bool &SawAnyByte) {
  while (Size > 0) {
    ssize_t N = ::read(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Status::error(std::string("read failed: ") +
                           std::strerror(errno));
    }
    if (N == 0)
      return Status::error(SawAnyByte ? "connection truncated mid-frame"
                                      : "connection closed");
    SawAnyByte = true;
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return Status::success();
}

} // namespace

Status eva::writeFrame(int Fd, MessageType Type, std::string_view Payload) {
  if (Payload.size() > MaxFramePayload)
    return Status::error("frame payload exceeds the protocol maximum");
  char Header[10];
  std::memcpy(Header, FrameMagic, 4);
  Header[4] = static_cast<char>(FrameVersion);
  Header[5] = static_cast<char>(Type);
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  for (int I = 0; I < 4; ++I)
    Header[6 + I] = static_cast<char>((Len >> (8 * I)) & 0xFF);
  // The payload is sent from the caller's buffer, not copied; sendmsg only
  // reads through the non-const iov_base.
  iovec Iov[2] = {{Header, sizeof(Header)},
                  {const_cast<char *>(Payload.data()), Payload.size()}};
  return writeAll(Fd, Iov, 2);
}

Expected<Frame> eva::readFrame(int Fd) {
  using Result = Expected<Frame>;
  char Header[10];
  bool SawAnyByte = false;
  if (Status S = readAll(Fd, Header, sizeof(Header), SawAnyByte); !S.ok())
    return S;
  if (std::memcmp(Header, FrameMagic, 4) != 0)
    return Result::error("bad frame magic");
  uint8_t Version = static_cast<uint8_t>(Header[4]);
  if (Version < MinFrameVersion || Version > FrameVersion)
    return Result::error(
        "unsupported protocol version " + std::to_string(Version) +
        " (this build accepts " + std::to_string(MinFrameVersion) + ".." +
        std::to_string(FrameVersion) + ")");
  uint8_t RawType = static_cast<uint8_t>(Header[5]);
  if (RawType > static_cast<uint8_t>(MessageType::Metrics))
    return Result::error("unknown frame type " + std::to_string(RawType));
  uint32_t Len = 0;
  for (int I = 0; I < 4; ++I)
    Len |= static_cast<uint32_t>(static_cast<uint8_t>(Header[6 + I]))
           << (8 * I);
  if (Len > MaxFramePayload)
    return Result::error("frame length " + std::to_string(Len) +
                         " exceeds the protocol maximum");
  Frame F;
  F.Type = static_cast<MessageType>(RawType);
  F.Payload.resize(Len);
  if (Len > 0)
    if (Status S = readAll(Fd, F.Payload.data(), Len, SawAnyByte); !S.ok())
      return S;
  return F;
}
