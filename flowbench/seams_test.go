package main

import (
	"reflect"
	"testing"
	"time"

	"identxx/internal/cluster"
	"identxx/internal/core"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/query"
	"identxx/internal/wire"
)

// The faces the seams' consumers type-assert. query's are unexported;
// these mirror their method sets (query/engine.go, query/engine_cred.go).
type (
	deadlineLower interface {
		Exchange(netaddr.IP, wire.Query, time.Time) (*wire.Response, time.Duration, error)
	}
	updateSource interface {
		SetUpdateHandler(func(netaddr.IP, wire.Update))
	}
	credSource interface {
		Credentialed() bool
		HostAuthorized(netaddr.IP) bool
		CredentialStatus(netaddr.IP) (query.CredStatus, bool)
		CredentialExpiry(netaddr.IP) (time.Time, bool)
		CredentialSessions() []query.HostCredStatus
	}
	closer interface{ Close() }
)

func faces[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

// implemented lists which of the faces v has. A face that is not an
// interface is a concrete type the consumer asserts (the router's
// Loopback shortcut).
func implemented(v any, fs []reflect.Type) []string {
	var out []string
	for _, f := range fs {
		t := reflect.TypeOf(v)
		if (f.Kind() == reflect.Interface && t.Implements(f)) || t == f {
			out = append(out, f.String())
		}
	}
	return out
}

func TestWrappersKeepTheirFaces(t *testing.T) {
	pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{}})
	defer pool.Close()
	eng := query.NewEngine(query.Config{Lower: pool})
	defer eng.Close()
	sw := &openflow.RemoteSwitch{}
	h := &channelHandler{}
	link := cluster.DialTCP("127.0.0.1:1")
	tr := newTracer()

	seams := []struct {
		name         string
		raw, wrapped any
		faces        []reflect.Type
	}{
		{"query.Config.Lower", pool, tr.wrapLower(pool), []reflect.Type{
			faces[query.Lower](), faces[deadlineLower](), faces[updateSource](), faces[credSource](),
		}},
		{"core.Config.Transport", eng, tr.wrapTransport(eng), []reflect.Type{
			faces[core.QueryTransport](), faces[core.AsyncQueryTransport](),
			faces[core.TracedAsyncQueryTransport](), faces[core.CredentialChecker](),
		}},
		{"AddDatapath", sw, tr.wrapDatapath(sw), []reflect.Type{
			faces[openflow.Datapath](), faces[core.FlowEnumerator](), faces[closer](),
		}},
		{"ChannelHandler", h, tr.wrapHandler(h), []reflect.Type{faces[openflow.ChannelHandler]()}},
		{"cluster.Options.Dial", link, tr.wrapLink(link), []reflect.Type{
			faces[cluster.Link](), reflect.TypeOf(cluster.Loopback{}),
		}},
	}
	for _, s := range seams {
		raw, wrapped := implemented(s.raw, s.faces), implemented(s.wrapped, s.faces)
		if !reflect.DeepEqual(raw, wrapped) {
			t.Errorf("%s: wrapped value has faces %v, unwrapped %v", s.name, wrapped, raw)
		}
	}
}
