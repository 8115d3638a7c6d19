#include "x509/name.h"

namespace rev::x509 {

Name Name::FromCommonName(std::string_view cn) {
  Name n;
  n.Add(asn1::oids::CommonName(), cn);
  return n;
}

Name Name::Make(std::string_view cn, std::string_view org,
                std::string_view country) {
  Name n;
  n.Add(asn1::oids::CountryName(), country);
  n.Add(asn1::oids::OrganizationName(), org);
  n.Add(asn1::oids::CommonName(), cn);
  return n;
}

void Name::Add(asn1::Oid type, std::string_view value) {
  attributes_.push_back({std::move(type), std::string(value)});
}

std::string Name::CommonName() const {
  for (const auto& attr : attributes_)
    if (attr.type == asn1::oids::CommonName()) return attr.value;
  return {};
}

std::string Name::Organization() const {
  for (const auto& attr : attributes_)
    if (attr.type == asn1::oids::OrganizationName()) return attr.value;
  return {};
}

std::string Name::ToString() const {
  std::string out;
  // Render in reverse encoding order so CN comes first, matching the
  // conventional display form.
  for (auto it = attributes_.rbegin(); it != attributes_.rend(); ++it) {
    if (!out.empty()) out += ", ";
    if (it->type == asn1::oids::CommonName()) {
      out += "CN=";
    } else if (it->type == asn1::oids::OrganizationName()) {
      out += "O=";
    } else if (it->type == asn1::oids::CountryName()) {
      out += "C=";
    } else {
      out += it->type.ToString() + "=";
    }
    out += it->value;
  }
  return out;
}

void Name::Encode(asn1::Writer& w) const {
  const std::size_t rdns = w.Begin(asn1::kTagSequence);
  for (const auto& attr : attributes_) {
    const std::size_t rdn = w.Begin(asn1::kTagSet);
    const std::size_t atv = w.Begin(asn1::kTagSequence);
    w.ObjectId(attr.type);
    w.Utf8String(attr.value);
    w.End(atv);
    w.End(rdn);
  }
  w.End(rdns);
}

bool Name::Read(asn1::Reader& r, BytesView* der, Name* out) {
  if (der) {
    asn1::Reader probe = r;
    if (!probe.ReadRawTlv(der)) return false;
  }
  asn1::Reader rdns;
  if (!r.ReadSequence(&rdns)) return false;
  while (!rdns.Empty()) {
    // RelativeDistinguishedName ::= SET SIZE (1..MAX) OF
    // AttributeTypeAndValue (X.501).
    asn1::Reader rdn;
    if (!rdns.ReadSet(&rdn) || rdn.Empty()) return false;
    while (!rdn.Empty()) {
      asn1::Reader atv;
      BytesView type;
      std::uint8_t tag = 0;
      BytesView value;
      if (!rdn.ReadSequence(&atv) || !atv.ReadOidView(&type) ||
          !atv.ReadTlv(&tag, &value) || !atv.Empty() ||
          (tag != asn1::kTagUtf8String && tag != asn1::kTagPrintableString &&
           tag != asn1::kTagIa5String))
        return false;
      if (out) out->Add(*asn1::Oid::DecodeContent(type), AsStringView(value));
    }
  }
  return true;
}

}  // namespace rev::x509
