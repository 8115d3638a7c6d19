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

std::optional<Name> Name::Decode(asn1::Reader& r) {
  asn1::Reader rdn_sequence;
  if (!r.ReadSequence(&rdn_sequence)) return std::nullopt;
  Name name;
  while (!rdn_sequence.Empty()) {
    asn1::Reader rdn_set;
    // RelativeDistinguishedName ::= SET SIZE (1..MAX) OF
    // AttributeTypeAndValue (X.501).
    if (!rdn_sequence.ReadSet(&rdn_set) || rdn_set.Empty())
      return std::nullopt;
    while (!rdn_set.Empty()) {
      asn1::Reader atv;
      if (!rdn_set.ReadSequence(&atv)) return std::nullopt;
      NameAttribute attr;
      std::string value;
      if (!atv.ReadOid(&attr.type) || !atv.ReadAnyString(&value) ||
          !atv.Empty())
        return std::nullopt;
      attr.value = std::move(value);
      name.attributes_.push_back(std::move(attr));
    }
  }
  return name;
}

}  // namespace rev::x509
