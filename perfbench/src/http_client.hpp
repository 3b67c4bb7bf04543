// Minimal HTTP/1.1 client for the lookup generator. It keeps its connection
// open between requests unless the server answers `Connection: close`, so a
// keep-alive server gains without any change here; with a close-per-request
// server every request pays a fresh connect, which `connect_seconds` counts.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

struct HttpReply {
  int status = 0;
  std::string body;
};

class HttpClient {
 public:
  HttpClient(std::uint16_t port, int timeout_ms) : port_(port), timeout_ms_(timeout_ms) {}
  ~HttpClient() { disconnect(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // POSTs `body` to `path` on 127.0.0.1 and reads the whole reply. A reused
  // connection that the server dropped while idle is reopened once. False
  // with `error` set on refusal, timeout or an unparseable reply.
  bool post(std::string_view path, std::string_view body, HttpReply& reply, std::string& error);

  [[nodiscard]] std::uint64_t connections() const { return connections_; }
  [[nodiscard]] double connect_seconds() const { return connect_seconds_; }

 private:
  bool connect(std::string& error);
  void disconnect();
  // One exchange on the open connection. `received_any` tells the caller
  // whether a failure happened before the server sent a single byte.
  bool exchange(std::string_view path, std::string_view body, HttpReply& reply,
                std::string& error, bool& received_any, bool& keep_open);

  const std::uint16_t port_;
  const int timeout_ms_;
  int fd_ = -1;
  std::uint64_t connections_ = 0;
  double connect_seconds_ = 0;
  std::string buffer_;
};

}  // namespace perfbench
