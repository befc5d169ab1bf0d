#ifndef PDS_NET_DIRECT_LINK_H_
#define PDS_NET_DIRECT_LINK_H_

#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "global/common.h"
#include "mcu/secure_token.h"
#include "net/token_client.h"
#include "net/transport.h"

namespace pds::net {

/// The SSI's end of a link whose far end is a token answered on the spot:
/// Send() hands the frame to a TokenSession, which answers it before Send()
/// returns, and the reply waits for the next Recv(). There is no thread, no
/// queue and no TokenClient behind it — one session object per participant,
/// pointing at that participant's token and tuples. The in-process
/// global::*Protocol::Execute adapters admit one link per participant to an
/// SsiServer, so in-process runs execute the wire protocol frame for frame.
///
/// At most one reply is in flight: the SSI reads each reply before its next
/// request, and a second unread reply makes Send() return
/// ResourceExhausted. Recv() never waits: with no reply parked it returns
/// DeadlineExceeded at once (the token stayed silent), IoError once Bye
/// closed the link, and — as on a real link, Send() does not report the
/// peer's troubles — the token's own error once a fatal one closed the
/// session, so the run fails with the token's reason.
class DirectTokenLink : public Transport {
 public:
  /// `tuples` and `packed` are pointed at, not copied (see TokenSession).
  DirectTokenLink(mcu::SecureToken* token,
                  const std::vector<global::SourceTuple>* tuples,
                  const crypto::PackedAggregate* packed)
      : session_(token, tuples, packed) {}

  [[nodiscard]] Status Send(ByteView frame) override;
  [[nodiscard]] Result<Bytes> Recv(uint32_t deadline_ms) override;
  void Close() override { closed_ = true; }
  [[nodiscard]] bool closed() const override { return closed_; }

 private:
  TokenSession session_;
  std::optional<Bytes> parked_;
  Status failure_;  // the fatal token error that closed the link, if any
  bool closed_ = false;
};

}  // namespace pds::net

#endif  // PDS_NET_DIRECT_LINK_H_
