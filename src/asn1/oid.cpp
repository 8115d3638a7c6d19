#include "asn1/oid.h"

#include <span>
#include <vector>

namespace rev::asn1 {

namespace {

void AppendBase128(Bytes& out, std::uint64_t v) {
  std::uint8_t tmp[10];
  int n = 0;
  do {
    tmp[n++] = static_cast<std::uint8_t>(v & 0x7F);
    v >>= 7;
  } while (v);
  for (int i = n - 1; i >= 0; --i)
    out.push_back(static_cast<std::uint8_t>(tmp[i] | (i ? 0x80 : 0x00)));
}

// DER content octets for `components`; empty if there are fewer than two.
Bytes EncodeComponents(std::span<const std::uint32_t> components) {
  Bytes out;
  if (components.size() < 2) return out;
  AppendBase128(out, static_cast<std::uint64_t>(components[0]) * 40 +
                         components[1]);
  for (std::size_t i = 2; i < components.size(); ++i)
    AppendBase128(out, components[i]);
  return out;
}

}  // namespace

Oid::Oid(std::initializer_list<std::uint32_t> components)
    : content_(EncodeComponents({components.begin(), components.size()})) {}

std::optional<Oid> Oid::Parse(std::string_view dotted) {
  std::vector<std::uint32_t> components;
  std::uint64_t current = 0;
  bool have_digit = false;
  for (char c : dotted) {
    if (c >= '0' && c <= '9') {
      current = current * 10 + static_cast<std::uint64_t>(c - '0');
      if (current > 0xFFFFFFFFull) return std::nullopt;
      have_digit = true;
    } else if (c == '.') {
      if (!have_digit) return std::nullopt;
      components.push_back(static_cast<std::uint32_t>(current));
      current = 0;
      have_digit = false;
    } else {
      return std::nullopt;
    }
  }
  if (!have_digit) return std::nullopt;
  components.push_back(static_cast<std::uint32_t>(current));
  if (components.size() < 2) return std::nullopt;
  if (components[0] > 2) return std::nullopt;
  if (components[0] < 2 && components[1] >= 40) return std::nullopt;
  Oid oid;
  oid.content_ = EncodeComponents(components);
  return oid;
}

bool Oid::IsValidContent(BytesView content) {
  if (content.empty()) return false;
  std::size_t i = 0;
  while (i < content.size()) {
    // Reject non-minimal leading 0x80 continuation octet.
    if (content[i] == 0x80) return false;
    std::uint64_t v = 0;
    bool terminated = false;
    while (i < content.size()) {
      const std::uint8_t b = content[i++];
      if (v > (0xFFFFFFFFull >> 7)) return false;  // overflow guard
      v = (v << 7) | (b & 0x7F);
      if (!(b & 0x80)) {
        terminated = true;
        break;
      }
    }
    if (!terminated) return false;
  }
  return true;
}

std::optional<Oid> Oid::DecodeContent(BytesView content) {
  if (!IsValidContent(content)) return std::nullopt;
  Oid oid;
  oid.content_.assign(content.begin(), content.end());
  return oid;
}

std::string Oid::ToString() const {
  std::string out;
  std::uint64_t v = 0;
  bool first = true;
  for (const std::uint8_t b : content_) {
    v = (v << 7) | (b & 0x7F);
    if (b & 0x80) continue;
    if (first) {
      // The first subidentifier packs two arcs: 40 * arc0 + arc1.
      first = false;
      const std::uint64_t arc0 = v < 40 ? 0 : v < 80 ? 1 : 2;
      out += std::to_string(arc0);
      out.push_back('.');
      out += std::to_string(v - arc0 * 40);
    } else {
      out.push_back('.');
      out += std::to_string(v);
    }
    v = 0;
  }
  return out;
}

namespace oids {

#define REV_DEFINE_OID(name, ...)            \
  const Oid& name() {                        \
    static const Oid oid{__VA_ARGS__};       \
    return oid;                              \
  }

REV_DEFINE_OID(Sha256WithRsa, 1, 2, 840, 113549, 1, 1, 11)
REV_DEFINE_OID(RsaEncryption, 1, 2, 840, 113549, 1, 1, 1)
REV_DEFINE_OID(SimSha256, 1, 3, 6, 1, 4, 1, 55555, 1, 1)
REV_DEFINE_OID(Sha256, 2, 16, 840, 1, 101, 3, 4, 2, 1)
REV_DEFINE_OID(CommonName, 2, 5, 4, 3)
REV_DEFINE_OID(OrganizationName, 2, 5, 4, 10)
REV_DEFINE_OID(CountryName, 2, 5, 4, 6)
REV_DEFINE_OID(BasicConstraints, 2, 5, 29, 19)
REV_DEFINE_OID(KeyUsage, 2, 5, 29, 15)
REV_DEFINE_OID(CrlDistributionPoints, 2, 5, 29, 31)
REV_DEFINE_OID(AuthorityInfoAccess, 1, 3, 6, 1, 5, 5, 7, 1, 1)
REV_DEFINE_OID(CertificatePolicies, 2, 5, 29, 32)
REV_DEFINE_OID(SubjectAltName, 2, 5, 29, 17)
REV_DEFINE_OID(SubjectKeyIdentifier, 2, 5, 29, 14)
REV_DEFINE_OID(NameConstraints, 2, 5, 29, 30)
REV_DEFINE_OID(AuthorityKeyIdentifier, 2, 5, 29, 35)
REV_DEFINE_OID(CrlReason, 2, 5, 29, 21)
REV_DEFINE_OID(CrlNumber, 2, 5, 29, 20)
REV_DEFINE_OID(AdOcsp, 1, 3, 6, 1, 5, 5, 7, 48, 1)
REV_DEFINE_OID(AdCaIssuers, 1, 3, 6, 1, 5, 5, 7, 48, 2)
REV_DEFINE_OID(VerisignEvPolicy, 2, 16, 840, 1, 113733, 1, 7, 23, 6)
REV_DEFINE_OID(OcspBasic, 1, 3, 6, 1, 5, 5, 7, 48, 1, 1)
REV_DEFINE_OID(OcspNonce, 1, 3, 6, 1, 5, 5, 7, 48, 1, 2)

#undef REV_DEFINE_OID

}  // namespace oids

}  // namespace rev::asn1
