package netsim

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/ipaddr"
)

// oraclePaths are the request paths the encoder oracle covers: the
// front page, robots.txt, a subpage some profiles serve, and a path
// none does.
var oraclePaths = []string{"/", "/robots.txt", "/about", "/no/such/page.html"}

// wantResponse is the oracle: what http.Response.Write produces for
// the page a request is routed to.
func wantResponse(t testing.TB, req *http.Request, pg page) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := plainResponse(req, pg).Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func getRequest(t testing.TB, path string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://sim"+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestAppendResponseMatchesResponseWrite checks the direct encoder
// byte for byte against http.Response.Write for every address of a
// default EC2-like cloud, on several days, for every oracle path.
func TestAppendResponseMatchesResponseWrite(t *testing.T) {
	cloud, err := cloudsim.New(cloudsim.DefaultEC2Config(1024, 1))
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(cloud)
	if err != nil {
		t.Fatal(err)
	}
	days := []int{0, 1, cloud.Days() / 2, cloud.Days() - 1}
	reqs := make([]*http.Request, len(oraclePaths))
	for i, path := range oraclePaths {
		reqs[i] = getRequest(t, path)
	}
	var out []byte
	pages, failing := 0, 0
	for _, day := range days {
		cloud.Ranges().Each(func(ip ipaddr.Addr) bool {
			for _, req := range reqs {
				pg, ok := n.route(day, ip, req.URL.Path)
				if !ok {
					if st := cloud.StateAt(day, ip); st.Web {
						failing++
					}
					return true
				}
				pages++
				out = appendResponse(out[:0], req, pg)
				if want := wantResponse(t, req, pg); !bytes.Equal(out, want) {
					t.Fatalf("day %d %s %s:\n got %q\nwant %q", day, ip, req.URL.Path, out, want)
				}
			}
			return true
		})
	}
	if pages == 0 || failing == 0 {
		t.Fatalf("oracle saw %d pages and %d failing web hosts; want both", pages, failing)
	}
}

// TestAppendResponseFallbacks covers the pages the direct encoding
// hands to http.Response.Write: their bytes must match too.
func TestAppendResponseFallbacks(t *testing.T) {
	req := getRequest(t, "/")
	for name, pg := range map[string]page{
		"empty body":          {status: 200, headers: map[string]string{"Server": "x"}},
		"no-body status":      {status: 304},
		"non-canonical key":   {status: 200, body: "b", headers: map[string]string{"x-powered-by": "PHP"}},
		"framing header":      {status: 200, body: "b", headers: map[string]string{"Content-Length": "99"}},
		"value needs cleanup": {status: 200, body: "b", headers: map[string]string{"Server": " a\r\nb "}},
		"empty content type":  {status: 200, body: "b", headers: map[string]string{"Content-Type": ""}},
		"unknown status":      {status: 599, body: "b"},
	} {
		if got, want := appendResponse([]byte("prefix"), req, pg), append([]byte("prefix"), wantResponse(t, req, pg)...); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want)
		}
	}
}

// exchange writes raw to a fresh connection to ip:80 and returns every
// byte the server sends before closing.
func exchange(t *testing.T, n *Network, ip ipaddr.Addr, raw string) []byte {
	t.Helper()
	c, err := n.DialContext(context.Background(), "tcp", ip.String()+":80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	out, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return out
}

// TestServedBytesMatchResponseWrite checks the wire end to end: GET
// (direct encoder) and HEAD (http.Response.Write) responses for every
// oracle path, and an application-layer failure that closes the
// connection without a byte.
func TestServedBytesMatchResponseWrite(t *testing.T) {
	n, cloud := testNetwork(t)
	n.LossPerMille = 0
	ip := findWebIP(t, cloud, 80)
	for _, method := range []string{http.MethodGet, http.MethodHead} {
		for _, path := range oraclePaths {
			raw := method + " " + path + " HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n"
			req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
			if err != nil {
				t.Fatal(err)
			}
			pg, ok := n.route(0, ip, path)
			if !ok {
				t.Fatalf("no page for %s", ip)
			}
			if got, want := exchange(t, n, ip, raw), wantResponse(t, req, pg); !bytes.Equal(got, want) {
				t.Errorf("%s %s:\n got %q\nwant %q", method, path, got, want)
			}
		}
	}

	failing := findIP(t, cloud, func(s cloudsim.IPState) bool {
		return s.Bound && s.Web && s.HTTPFail && !s.Slow && s.Ports.OpensPort(80)
	})
	if got := exchange(t, n, failing, "GET / HTTP/1.1\r\nHost: sim\r\n\r\n"); len(got) != 0 {
		t.Errorf("failing application layer sent %q; want the connection closed", got)
	}
}
