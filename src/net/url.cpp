#include "net/url.h"

namespace rev::net {

std::optional<Url> ParseUrl(std::string_view url) {
  const std::size_t scheme_end = url.find("://");
  if (scheme_end == std::string_view::npos || scheme_end == 0)
    return std::nullopt;
  Url out;
  out.scheme = std::string(url.substr(0, scheme_end));
  for (char& c : out.scheme)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  if (out.scheme != "http" && out.scheme != "https") return std::nullopt;

  std::string_view rest = url.substr(scheme_end + 3);
  const std::size_t path_start = rest.find('/');
  if (path_start == std::string_view::npos) {
    out.host = std::string(rest);
    // Not `= "/"`: GCC 12 reports a false -Wrestrict on that assignment.
    out.path = std::string(1, '/');
  } else {
    out.host = std::string(rest.substr(0, path_start));
    out.path = std::string(rest.substr(path_start));
  }
  if (out.host.empty()) return std::nullopt;
  return out;
}

bool IsFetchable(std::string_view url) {
  return ParseUrl(url).has_value();
}

}  // namespace rev::net
