#include "crl/crl.h"

#include <algorithm>
#include <sstream>

#include "asn1/reader.h"
#include "asn1/writer.h"
#include "util/stats.h"
#include "x509/spki.h"

namespace rev::crl {

namespace {

// TBSCertList ::= SEQUENCE { version v2, signature, issuer, thisUpdate,
//   nextUpdate OPTIONAL, revokedCertificates SEQUENCE OF SEQUENCE {
//   userCertificate, revocationDate, crlEntryExtensions OPTIONAL } OPTIONAL,
//   crlExtensions [0] EXPLICIT OPTIONAL }
void EncodeTbsCrl(asn1::Writer& w, const TbsCrl& tbs,
                  crypto::KeyType sig_type) {
  const std::size_t tbs_seq = w.Begin(asn1::kTagSequence);
  w.Integer(1);  // v2
  x509::EncodeSignatureAlgorithm(w, sig_type);
  tbs.issuer.Encode(w);
  w.Time(tbs.this_update);
  if (tbs.next_update != 0) w.Time(tbs.next_update);
  if (!tbs.entries.empty()) {
    const std::size_t entries = w.Begin(asn1::kTagSequence);
    for (const CrlEntry& entry : tbs.entries) {
      const std::size_t seq = w.Begin(asn1::kTagSequence);
      w.IntegerUnsigned(entry.serial);
      w.Time(entry.revocation_date);
      if (entry.reason != x509::ReasonCode::kNoReasonCode) {
        const std::size_t extensions = w.Begin(asn1::kTagSequence);
        x509::EncodeCrlReason(w, entry.reason);
        w.End(extensions);
      }
      w.End(seq);
    }
    w.End(entries);
  }
  if (tbs.crl_number >= 0) {
    const std::size_t wrapper = w.BeginContext(0);
    const std::size_t extensions = w.Begin(asn1::kTagSequence);
    x509::EncodeCrlNumber(w, tbs.crl_number);
    w.End(extensions);
    w.End(wrapper);
  }
  w.End(tbs_seq);
}

// A ReadExtensions visitor for a list whose one understood extension is
// `oid`: parses it with `parse` into *out, and fails on a second instance
// of it (RFC 5280 §4.2) or on any other extension marked critical (§5.2,
// §5.3: a CRL with an unrecognised critical extension must not be used).
// Any other extension is passed over.
template <typename Parse, typename T>
auto KeepOnce(const asn1::Oid& oid, Parse parse, T* out) {
  return [&oid, parse, out, seen = false](
             const x509::ExtensionView& ext) mutable {
    if (!asn1::OidContentIs(ext.oid, oid)) return !ext.critical;
    if (seen) return false;
    seen = true;
    const auto value = parse(ext.value);
    if (value) *out = *value;
    return value.has_value();
  };
}

}  // namespace

Crl SignCrl(TbsCrl tbs, const crypto::KeyPair& issuer_key) {
  Crl crl;
  crl.tbs = std::move(tbs);
  // CertificateList ::= SIGNED { TBSCertList }, in one buffer; an entry
  // without a reason is ~40 bytes, so the reserve covers the common shape.
  crl.der.reserve(256 + 48 * crl.tbs.entries.size());
  asn1::Writer w(crl.der);
  x509::EncodeSigned(w, issuer_key, [&](asn1::Writer& tbs_w) {
    EncodeTbsCrl(tbs_w, crl.tbs, issuer_key.type);
  });
  return crl;
}

bool ReadCrlEntry(asn1::Reader& list, CrlEntryView* out) {
  asn1::Reader entry;
  x509::Extensions exts;
  out->reason = x509::ReasonCode::kNoReasonCode;
  return list.ReadSequence(&entry) &&
         entry.ReadIntegerUnsignedView(&out->serial) &&
         entry.ReadTime(&out->revocation_date) &&
         (!entry.NextIs(asn1::kTagSequence) ||
          x509::ReadExtensions(entry, &exts,
                               KeepOnce(asn1::oids::CrlReason(),
                                        x509::ParseCrlReason, &out->reason))) &&
         entry.Empty();
}

std::optional<CrlEntryView> CrlView::Find(BytesView serial) const {
  // ParseCrlView validated every entry, so these reads cannot fail. Each
  // entry's serial is read and the rest of its TLV skipped; only the match
  // has its date and reason decoded.
  for (asn1::Reader list(entries.bytes()); !list.Empty();) {
    asn1::Reader at = list, entry;
    BytesView entry_serial;
    if (!list.ReadSequence(&entry) ||
        !entry.ReadIntegerUnsignedView(&entry_serial))
      return std::nullopt;
    if (std::ranges::equal(entry_serial, serial)) {
      CrlEntryView found;
      if (!ReadCrlEntry(at, &found)) return std::nullopt;
      return found;
    }
  }
  return std::nullopt;
}

std::optional<CrlView> ParseCrlView(BytesView der) {
  CrlView view;
  view.der = der;
  asn1::Reader top(der), crl_seq, tbs, tbs_seq;
  std::int64_t version;
  if (!top.ReadSequence(&crl_seq) || !top.Empty() ||
      !crl_seq.ReadRawTlv(&view.tbs_der))
    return std::nullopt;
  tbs = asn1::Reader(view.tbs_der);
  if (!tbs.ReadSequence(&tbs_seq) || !tbs_seq.ReadInteger(&version) ||
      version != 1)
    return std::nullopt;
  const auto inner_sig_type = x509::DecodeSignatureAlgorithm(tbs_seq);
  if (!inner_sig_type ||
      !x509::Name::Read(tbs_seq, &view.issuer_der, nullptr) ||
      !tbs_seq.ReadTime(&view.this_update))
    return std::nullopt;
  // nextUpdate is OPTIONAL: present iff the next TLV is a time type.
  if ((tbs_seq.NextIs(asn1::kTagUtcTime) ||
       tbs_seq.NextIs(asn1::kTagGeneralizedTime)) &&
      !tbs_seq.ReadTime(&view.next_update))
    return std::nullopt;

  BytesView entries;  // revokedCertificates: empty when absent
  if (tbs_seq.NextIs(asn1::kTagSequence) &&
      !tbs_seq.ReadTagged(asn1::kTagSequence, &entries))
    return std::nullopt;
  for (asn1::Reader list(entries); !list.Empty(); ++view.num_entries)
    if (CrlEntryView entry; !ReadCrlEntry(list, &entry)) return std::nullopt;
  view.entries = CrlEntries(entries);

  asn1::Reader wrapper;
  x509::Extensions exts;
  if (tbs_seq.NextIsContext(0) &&
      (!tbs_seq.ReadContextExplicit(0, &wrapper) ||
       !x509::ReadExtensions(wrapper, &exts,
                             KeepOnce(asn1::oids::CrlNumber(),
                                      x509::ParseCrlNumber, &view.crl_number)) ||
       !wrapper.Empty()))
    return std::nullopt;

  const auto outer_sig_type = x509::DecodeSignatureAlgorithm(crl_seq);
  unsigned unused = 0;
  if (!tbs_seq.Empty() || !outer_sig_type ||
      *outer_sig_type != *inner_sig_type ||
      !crl_seq.ReadBitString(&view.signature, &unused) || unused != 0 ||
      !crl_seq.Empty())
    return std::nullopt;
  view.sig_type = *outer_sig_type;
  return view;
}

bool VerifyCrlSignature(const CrlView& crl, const crypto::PublicKey& key) {
  return key.type == crl.sig_type &&
         crypto::Verify(key, crl.tbs_der, crl.signature);
}

std::string DescribeCrl(const CrlView& crl, std::size_t max_entries) {
  x509::Name issuer;
  asn1::Reader issuer_der(crl.issuer_der);
  x509::Name::Read(issuer_der, nullptr, &issuer);
  std::ostringstream out;
  out << "CRL:\n";
  out << "  issuer      : " << issuer.ToString() << "\n";
  out << "  this update : " << util::FormatDateTime(crl.this_update) << "\n";
  if (crl.next_update != 0)
    out << "  next update : " << util::FormatDateTime(crl.next_update) << "\n";
  if (crl.crl_number >= 0)
    out << "  CRL number  : " << crl.crl_number << "\n";
  out << "  entries     : " << crl.num_entries << "\n";
  out << "  size        : "
      << util::HumanBytes(static_cast<double>(crl.der.size())) << "\n";
  std::size_t shown = 0;
  for (const CrlEntryView& entry : crl.entries) {
    if (shown++ >= max_entries) {
      out << "    ... " << (crl.num_entries - max_entries) << " more\n";
      break;
    }
    out << "    " << x509::SerialToString(entry.serial) << "  revoked "
        << util::FormatDate(entry.revocation_date) << "  "
        << x509::ReasonCodeName(entry.reason) << "\n";
  }
  return out.str();
}

}  // namespace rev::crl
