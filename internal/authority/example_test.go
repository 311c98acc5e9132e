package authority_test

import (
	"fmt"
	"strings"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
)

// ExampleParseZoneFile loads a master-file zone and answers a wildcard
// query from it on the wire.
func ExampleParseZoneFile() {
	const zoneText = `
$ORIGIN cdn.example.
$TTL 60
www      IN A     192.0.2.10
*.shard  IN A     192.0.2.99
`
	zone, err := authority.ParseZoneFile(strings.NewReader(zoneText), "")
	if err != nil {
		fmt.Println(err)
		return
	}
	srv := authority.NewServer()
	if err := srv.AddZone(zone); err != nil {
		fmt.Println(err)
		return
	}
	query, err := dnsmsg.NewQuery(1, "e42.shard.cdn.example", dnsmsg.TypeA).Encode()
	if err != nil {
		fmt.Println(err)
		return
	}
	reply, err := srv.HandleWire(query)
	if err != nil {
		fmt.Println(err)
		return
	}
	resp, err := dnsmsg.Decode(reply)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(resp.Answers[0])
	// Output:
	// e42.shard.cdn.example 60 IN A 192.0.2.99
}
