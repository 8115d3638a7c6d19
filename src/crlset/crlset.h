// Chrome's CRLSet structure (§7.1).
//
// A CRLSet is a map from "parent" (SHA-256 of the issuing certificate's
// SubjectPublicKeyInfo) to the serial numbers of revoked certificates signed
// by that parent, plus a small list of blocked SPKIs. It is distributed
// out-of-band and consulted at connection time with zero network cost.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "util/bytes.h"
#include "x509/certificate.h"

namespace rev::crlset {

class CrlSet {
 public:
  // Monotonic version counter, as in the real delivery channel.
  int sequence = 0;

  void AddEntry(const Bytes& parent_spki_sha256, const x509::Serial& serial);
  void AddBlockedSpki(const Bytes& spki_sha256);

  bool CoversParent(const Bytes& parent_spki_sha256) const;
  bool IsRevoked(const Bytes& parent_spki_sha256,
                 const x509::Serial& serial) const;
  bool IsBlockedSpki(const Bytes& spki_sha256) const;

  std::size_t NumParents() const { return parents_.size(); }
  std::size_t NumEntries() const;

  const std::map<Bytes, std::set<x509::Serial, util::BytesLess>,
                 util::BytesLess>&
  parents() const {
    return parents_;
  }
  const std::set<Bytes, util::BytesLess>& blocked_spkis() const {
    return blocked_spkis_;
  }

  // Binary serialization (length-prefixed; stands in for the real format).
  Bytes Serialize() const;
  static std::optional<CrlSet> Deserialize(BytesView data);

  // Exact size of Serialize()'s output, computed arithmetically from the
  // container sizes — no serialization pass, no allocation. A regression
  // test pins it equal to Serialize().size().
  std::size_t SerializedSize() const;

 private:
  std::map<Bytes, std::set<x509::Serial, util::BytesLess>, util::BytesLess>
      parents_;
  std::set<Bytes, util::BytesLess> blocked_spkis_;
};

}  // namespace rev::crlset
