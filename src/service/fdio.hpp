#pragma once
// Deadline-aware socket input for the serving loop (docs/ROBUSTNESS.md).
//
// serve_stream pumps a std::istream, which is the right shape for pipes and
// tests but hides the file descriptor — so a peer that connects and then
// never sends a byte (a slow-loris, a blackholed link, a crashed client with
// the socket half-open) parks a PlanServer connection slot forever.
// FdInStreambuf is a read-only streambuf over a connected socket fd that
// poll()s before every refill:
//
//  - Until the FIRST byte ever arrives, the handshake timeout applies: a peer
//    that cannot produce one byte of hello/request inside it is cut off.
//  - After that, the idle timeout applies per refill: a connection that goes
//    quiet mid-conversation is reaped instead of held open indefinitely.
//
// A timeout surfaces as ordinary EOF to the istream layer (the serving loop
// already handles peers that hang up), with a flag recording WHY so the
// caller can count wire.handshake_timeouts / wire.idle_reaped distinctly.
// Either timeout set to 0 means "wait forever" — the pre-hardening behavior.

#ifdef __unix__

#include <cstddef>
#include <cstdint>
#include <streambuf>

namespace pglb {

/// accept() one connection on `listener` and set up the new socket for the
/// serving loop: TCP_NODELAY, because responses are small and a peer that
/// pipelines requests on one connection (the fleet router) would otherwise
/// see a finished response held back by Nagle until its delayed ACK, ~40 ms.
/// Returns the connected fd, or -1 with errno from accept().
int accept_connection(int listener);

class FdInStreambuf : public std::streambuf {
 public:
  /// Does not own `fd`; the caller closes it after the stream is done.
  FdInStreambuf(int fd, std::uint64_t handshake_timeout_ms,
                std::uint64_t idle_timeout_ms);

  /// True when EOF was synthesized because the first byte never arrived
  /// within the handshake deadline.
  bool handshake_timed_out() const noexcept { return handshake_timed_out_; }

  /// True when EOF was synthesized because an established connection went
  /// idle past the idle deadline.
  bool idle_timed_out() const noexcept { return idle_timed_out_; }

 protected:
  int_type underflow() override;

 private:
  int fd_;
  std::uint64_t handshake_timeout_ms_;
  std::uint64_t idle_timeout_ms_;
  bool saw_first_byte_ = false;
  bool handshake_timed_out_ = false;
  bool idle_timed_out_ = false;
  char buffer_[4096];
};

}  // namespace pglb

#endif  // __unix__
