#include "net/axfr_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "distrib/axfr_stream.h"
#include "dns/message.h"
#include "util/bytes.h"

namespace rootless::net {

namespace {

using util::Error;

class Socket {
 public:
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int get() const { return fd_; }
  int release() { return std::exchange(fd_, -1); }

 private:
  int fd_;
};

using Clock = std::chrono::steady_clock;

// Whole milliseconds left before `deadline`, rounded up; 0 once it passed.
int MillisLeft(Clock::time_point deadline) {
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
          .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

Error Expired(const char* what) {
  return Error(ErrorCode::kTimeout,
               std::string("axfr ") + what + ": fetch deadline passed");
}

// Blocks until the non-blocking `fd` is ready for `events`; kTimeout once
// the fetch deadline passes.
util::Status WaitReady(int fd, short events, Clock::time_point deadline,
                       const char* what) {
  for (;;) {
    const int left = MillisLeft(deadline);
    if (left == 0) return Expired(what);
    pollfd pfd{fd, events, 0};
    const int n = ::poll(&pfd, 1, left);
    if (n > 0) return util::Status::Ok();
    if (n < 0 && errno != EINTR) {
      return Error(ErrorCode::kUnreachable,
                   std::string("axfr poll: ") + std::strerror(errno));
    }
  }
}

util::Result<int> ConnectTcp(const std::string& host, std::uint16_t port,
                             Clock::time_point deadline) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Error(ErrorCode::kUnavailable,
                 std::string("axfr socket: ") + std::strerror(errno));
  }
  Socket sock(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Error(ErrorCode::kUnavailable, "axfr: bad address " + host);
  }
  int err = 0;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    err = errno;
    if (err == EINPROGRESS) {
      ROOTLESS_RETURN_IF_ERROR(WaitReady(fd, POLLOUT, deadline, "connect"));
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    }
  }
  if (err != 0) {
    return Error(err == ETIMEDOUT ? ErrorCode::kTimeout
                                  : ErrorCode::kUnreachable,
                 std::string("axfr connect: ") + std::strerror(err));
  }
  return sock.release();
}

util::Status WriteAll(int fd, const std::uint8_t* data, std::size_t size,
                      Clock::time_point deadline) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ROOTLESS_RETURN_IF_ERROR(WaitReady(fd, POLLOUT, deadline, "write"));
        continue;
      }
      return Error(ErrorCode::kUnreachable,
                   std::string("axfr write: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return util::Status::Ok();
}

util::Status ReadAll(int fd, std::uint8_t* data, std::size_t size,
                     Clock::time_point deadline) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, data + done, size - done);
    if (n == 0) {
      return Error(ErrorCode::kProtocol, "axfr: connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ROOTLESS_RETURN_IF_ERROR(WaitReady(fd, POLLIN, deadline, "read"));
        continue;
      }
      return Error(ErrorCode::kUnreachable,
                   std::string("axfr read: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return util::Status::Ok();
}

// One write per frame: a separate 2-byte prefix write leaves the payload
// behind Nagle until the prefix is acknowledged.
util::Status SendFrame(int fd, const util::Bytes& payload,
                       Clock::time_point deadline) {
  util::Bytes frame{static_cast<std::uint8_t>(payload.size() >> 8),
                    static_cast<std::uint8_t>(payload.size() & 0xFF)};
  frame.insert(frame.end(), payload.begin(), payload.end());
  return WriteAll(fd, frame.data(), frame.size(), deadline);
}

// A stream that never stalls still ends at the deadline: it is checked per
// frame, not only while waiting for bytes.
util::Result<util::Bytes> RecvFrame(int fd, Clock::time_point deadline) {
  if (MillisLeft(deadline) == 0) return Expired("read");
  std::uint8_t prefix[2];
  ROOTLESS_RETURN_IF_ERROR(ReadAll(fd, prefix, 2, deadline));
  const std::size_t len = static_cast<std::size_t>(prefix[0]) << 8 | prefix[1];
  util::Bytes payload(len);
  ROOTLESS_RETURN_IF_ERROR(ReadAll(fd, payload.data(), len, deadline));
  return payload;
}

// RFC 1982 serial arithmetic: true iff `a` is older than `b`. Serials half
// the number space apart are left undefined by the RFC; they count as not
// older here, so the transfer goes ahead.
bool SerialOlder(std::uint32_t a, std::uint32_t b) {
  return a != b && b - a < 0x80000000u;
}

}  // namespace

util::Result<zone::SnapshotPtr> FetchZoneTcp(const std::string& host,
                                             std::uint16_t port,
                                             const AxfrFetchOptions& options) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options.timeout_ms);
  auto fd = ConnectTcp(host, port, deadline);
  if (!fd.ok()) return fd.error();
  Socket sock(*fd);

  // Serial probe: SOA query first; equal serial means nothing to move.
  if (options.have_serial != 0) {
    const dns::Message probe =
        dns::MakeQuery(0x50A, dns::Name(), dns::RRType::kSOA);
    ROOTLESS_RETURN_IF_ERROR(
        SendFrame(sock.get(), dns::EncodeMessage(probe), deadline));
    auto frame = RecvFrame(sock.get(), deadline);
    if (!frame.ok()) return frame.error();
    auto response = dns::DecodeMessage(*frame);
    if (!response.ok()) return response.error();
    std::uint32_t serial = 0;
    bool found = false;
    for (const auto& rr : response->answers) {
      if (rr.type == dns::RRType::kSOA &&
          std::holds_alternative<dns::SoaData>(rr.rdata)) {
        serial = std::get<dns::SoaData>(rr.rdata).serial;
        found = true;
      }
    }
    if (!found) {
      return Error(ErrorCode::kProtocol, "axfr: SOA probe got no SOA");
    }
    if (serial == options.have_serial) return zone::SnapshotPtr{};
    if (SerialOlder(serial, options.have_serial)) {
      return Error(ErrorCode::kStale,
                   "axfr: server serial " + std::to_string(serial) +
                       " is older than held " +
                       std::to_string(options.have_serial));
    }
  }

  const dns::Message axfr =
      dns::MakeQuery(0xAFF, dns::Name(), dns::RRType::kAXFR);
  ROOTLESS_RETURN_IF_ERROR(
      SendFrame(sock.get(), dns::EncodeMessage(axfr), deadline));

  // Read frames until the record stream closes with the second SOA. Each
  // frame is decoded once, here, and its records moved onto one vector.
  std::vector<dns::ResourceRecord> records;
  std::size_t soa_seen = 0;
  std::size_t transferred = 0;
  while (soa_seen < 2) {
    auto frame = RecvFrame(sock.get(), deadline);
    if (!frame.ok()) return frame.error();
    transferred += 2 + frame->size();
    if (transferred > kMaxAxfrBytes) {
      return Error(ErrorCode::kProtocol,
                   "axfr: transfer exceeds " +
                       std::to_string(kMaxAxfrBytes >> 20) + " MiB");
    }
    auto soas = distrib::AppendAxfrFrame(*frame, records);
    if (!soas.ok()) return soas.error();
    soa_seen += *soas;
  }
  return distrib::AssembleAxfrStream(std::move(records));
}

}  // namespace rootless::net
