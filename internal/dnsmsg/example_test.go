package dnsmsg_test

import (
	"fmt"

	"dnsnoise/internal/dnsmsg"
)

// ExampleMessage_Encode round-trips a response through the wire format.
func ExampleMessage_Encode() {
	q := dnsmsg.NewQuery(7, "www.example.com", dnsmsg.TypeA)
	resp := dnsmsg.NewResponse(q, dnsmsg.RCodeNoError)
	resp.Answers = append(resp.Answers, dnsmsg.RR{
		Name: "www.example.com", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN,
		TTL: 300, RData: dnsmsg.IPv4(192, 0, 2, 1),
	})
	wire, _ := resp.Encode()
	decoded, _ := dnsmsg.Decode(wire)
	fmt.Println(decoded.Answers[0])
	// Output:
	// www.example.com 300 IN A 192.0.2.1
}
