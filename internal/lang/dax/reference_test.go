package dax

import (
	"encoding/xml"
	"strings"
)

// referenceDoc is what the package parsed with before it had its own
// reader: encoding/xml's strict struct decode into the document type. It is
// kept as the reference readDoc is checked against. XMLName makes the
// decoder insist on an <adag> root, as the reader does.
type referenceDoc struct {
	XMLName xml.Name `xml:"adag"`
	xmlADAG
}

func decodeReference(src string) (*xmlADAG, error) {
	var doc referenceDoc
	if err := xml.NewDecoder(strings.NewReader(src)).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc.xmlADAG, nil
}
