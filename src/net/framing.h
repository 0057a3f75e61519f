#pragma once
#include <cstddef>
#include <string>

namespace adpa::net {

/// Length-capped line framing over a per-connection byte stream.
///
/// TCP delivers arbitrary chunks; the JSONL protocol is one request per
/// '\n'-terminated line. The framer buffers incoming bytes and hands back
/// complete lines with the terminator stripped ("\r\n" and "\n" both
/// delimit, so telnet-style CRLF clients work). The sequence of lines is a
/// pure function of the byte stream — chunk boundaries never change what
/// comes out, a property fuzz_framing checks by replaying every input both
/// whole and byte-at-a-time.
///
/// A line longer than `max_line_bytes` latches the framer into an oversized
/// state: NextLine reports kOversized forever after, Append drops further
/// input, and the connection owner is expected to answer with a framing
/// error and close. Latching (instead of skip-to-next-newline resync) is
/// deliberate — inside an overlong "line" there is no way to know whether a
/// later '\n' is a frame boundary or payload bytes of the same hostile
/// request, so the only safe protocol state is "this stream is broken".
/// The cap also bounds per-connection memory: the buffer never grows past
/// max_line_bytes + one read chunk (+1 for a trailing '\r' that may be the
/// first half of a CRLF terminator — it will be stripped, so it does not
/// count against the cap).
class LineFramer {
 public:
  /// Default cap: comfortably above the largest legal request line
  /// (max_nodes node ids of ≤ 19 digits) while bounding hostile streams.
  static constexpr size_t kDefaultMaxLineBytes = 1u << 20;

  LineFramer() : LineFramer(kDefaultMaxLineBytes) {}
  explicit LineFramer(size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  /// Buffers `size` bytes from the stream. No-op once oversized.
  void Append(const char* data, size_t size);

  enum class Next {
    kLine,      ///< `*line` holds one complete line (terminator stripped)
    kNeedMore,  ///< no complete line buffered; Append more bytes
    kOversized  ///< the cap was exceeded; the stream is unrecoverable
  };

  /// Extracts the next complete line, if any.
  Next NextLine(std::string* line);

  /// Hands out a non-empty unterminated trailing line, if one is buffered
  /// (the server answers a final line without '\n' at EOF). Returns false
  /// when nothing (or only emptiness) remains. Only meaningful after the
  /// peer sent EOF; never returns oversized data.
  bool TakeRemainder(std::string* line);

  /// Bytes currently buffered (diagnostics and tests).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }
  bool oversized() const { return oversized_; }
  size_t max_line_bytes() const { return max_line_bytes_; }

 private:
  /// Drops the consumed prefix once it dominates the buffer, keeping
  /// Append/NextLine amortized O(bytes) instead of O(bytes · lines).
  void Compact();

  const size_t max_line_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;   ///< bytes of buffer_ already returned as lines
  size_t scanned_ = 0;    ///< newline search resumes here (no rescans)
  bool oversized_ = false;
};

}  // namespace adpa::net
