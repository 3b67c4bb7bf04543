#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common.hpp"

namespace perfbench {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    char x = a[i] >= 'A' && a[i] <= 'Z' ? static_cast<char>(a[i] - 'A' + 'a') : a[i];
    char y = b[i] >= 'A' && b[i] <= 'Z' ? static_cast<char>(b[i] - 'A' + 'a') : b[i];
    if (x != y) return false;
  }
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) s.remove_suffix(1);
  return s;
}

}  // namespace

bool HttpClient::connect(std::string& error) {
  double start = wall_now();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms_ / 1000;
  tv.tv_usec = (timeout_ms_ % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  fd_ = fd;
  connections_ += 1;
  connect_seconds_ += wall_now() - start;
  return true;
}

void HttpClient::disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool HttpClient::post(std::string_view path, std::string_view body, HttpReply& reply,
                      std::string& error) {
  bool reused = fd_ >= 0;
  if (!reused && !connect(error)) return false;
  bool received_any = false;
  bool keep_open = false;
  bool ok = exchange(path, body, reply, error, received_any, keep_open);
  if (!ok && reused && !received_any) {
    // The server closed an idle keep-alive connection: reopen once.
    disconnect();
    if (!connect(error)) return false;
    ok = exchange(path, body, reply, error, received_any, keep_open);
  }
  if (!ok || !keep_open) disconnect();
  return ok;
}

bool HttpClient::exchange(std::string_view path, std::string_view body, HttpReply& reply,
                          std::string& error, bool& received_any, bool& keep_open) {
  std::string request = "POST ";
  request += path;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: ";
  request += std::to_string(body.size());
  request += "\r\n\r\n";
  request += body;
  std::size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }

  buffer_.clear();
  std::size_t header_end = std::string::npos;
  std::size_t content_length = 0;
  bool has_length = false;
  char chunk[16384];
  for (;;) {
    if (header_end != std::string::npos && has_length &&
        buffer_.size() >= header_end + content_length) {
      break;
    }
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    if (n == 0) {
      if (header_end != std::string::npos && !has_length) break;  // body ends at close
      error = received_any ? "connection closed mid-reply" : "connection closed";
      return false;
    }
    received_any = true;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    if (header_end != std::string::npos) continue;
    std::size_t blank = buffer_.find("\r\n\r\n");
    if (blank == std::string::npos) continue;
    header_end = blank + 4;

    // Status line and the two headers the framing depends on.
    std::string_view head(buffer_.data(), blank);
    std::size_t eol = head.find("\r\n");
    std::string_view status_line = head.substr(0, eol);
    if (status_line.size() < 12 || status_line.substr(0, 7) != "HTTP/1.") {
      error = "malformed status line";
      return false;
    }
    bool http10 = status_line[7] == '0';
    reply.status = std::atoi(std::string(status_line.substr(9, 3)).c_str());
    keep_open = !http10;
    while (eol != std::string_view::npos) {
      head.remove_prefix(eol + 2);
      eol = head.find("\r\n");
      std::string_view line = head.substr(0, eol);
      std::size_t colon = line.find(':');
      if (colon == std::string_view::npos) continue;
      std::string_view key = trim(line.substr(0, colon));
      std::string_view value = trim(line.substr(colon + 1));
      if (iequals(key, "Content-Length")) {
        content_length = static_cast<std::size_t>(std::strtoull(std::string(value).c_str(), nullptr, 10));
        has_length = true;
      } else if (iequals(key, "Connection")) {
        if (iequals(value, "close")) keep_open = false;
        if (iequals(value, "keep-alive")) keep_open = true;
      }
    }
    if (!has_length) keep_open = false;
  }
  reply.body = buffer_.substr(header_end, has_length ? content_length : std::string::npos);
  return true;
}

}  // namespace perfbench
