#include "net/direct_link.h"

#include <utility>

namespace pds::net {

Status DirectTokenLink::Send(ByteView frame) {
  if (closed_) {
    return Status::IoError("transport closed");
  }
  if (parked_.has_value()) {
    return Status::ResourceExhausted("previous reply not yet received");
  }
  auto out = session_.OnFrame(frame);
  if (!out.ok()) {
    failure_ = out.status();  // the token gave up on the session
    closed_ = true;
  } else {
    parked_ = std::move(out.value().reply);
    closed_ = out.value().done;
  }
  return Status::Ok();
}

Result<Bytes> DirectTokenLink::Recv(uint32_t /*deadline_ms*/) {
  if (!parked_.has_value()) {
    if (!failure_.ok()) {
      return failure_;
    }
    if (closed_) {
      return Status::IoError("transport closed");
    }
    return Status::DeadlineExceeded("token sent no reply");
  }
  Bytes frame = std::move(*parked_);
  parked_.reset();
  return frame;
}

}  // namespace pds::net
