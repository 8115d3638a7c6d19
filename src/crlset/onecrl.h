// Mozilla's OneCRL (§7 footnote 24): a pushed blocklist like CRLSets but
// restricted to *intermediate* certificates — "as of this writing, there
// are only 8 revoked certificates on the list". Entries are keyed by
// (issuer name, serial), matching how Mozilla distributes them.
#pragma once

#include <set>
#include <utility>

#include "util/bytes.h"
#include "x509/certificate.h"
#include "x509/name.h"

namespace rev::crlset {

class OneCrl {
 public:
  void AddEntry(const x509::Name& issuer, const x509::Serial& serial);

  bool IsRevoked(const x509::Name& issuer, const x509::Serial& serial) const;

  // Convenience: checks a parsed CA certificate.
  bool Blocks(const x509::Certificate& intermediate) const;

  std::size_t size() const { return entries_.size(); }

 private:
  // (issuer DER, serial)
  std::set<std::pair<Bytes, x509::Serial>, util::BytesLess> entries_;
};

}  // namespace rev::crlset
