package shadow

import (
	"context"
	"fmt"
	"net"
	"sort"
	"time"

	"shadowedit/internal/client"
	"shadowedit/internal/server"
	"shadowedit/internal/wire"
)

// ServeTCP runs a shadow server over a real TCP (or any net.Listener)
// listener, for the cmd/shadowd daemon. It blocks until the listener closes
// or the server is closed. Each session's writer gathers a burst of
// messages and writes it once the queue goes idle, so PULL and SUBMIT_OK,
// or FILE_ACK and OUTPUT, leave in one segment. The client side writes each
// call's frames before the call returns (a submission's NOTIFYs and SUBMIT
// in one write); both sides read through a buffer.
func ServeTCP(srv *Server, ln net.Listener) error {
	return srv.Serve(server.AcceptorFunc(func() (wire.Conn, error) {
		conn, err := ln.Accept()
		if err != nil {
			return nil, err
		}
		return wire.NewStreamConn(conn), nil
	}))
}

// DialTCP opens a shadow session to a server at addr over real TCP, for the
// cmd/shadow CLI. Unless the config supplies its own Dial function, one
// redialing addr is installed, so TCP sessions get the fault-tolerant
// reconnect layer automatically.
func DialTCP(ctx context.Context, addr string, cfg ClientConfig) (*Client, error) {
	if cfg.Dial == nil {
		cfg.Dial = func() (wire.Conn, error) {
			d := net.Dialer{Timeout: 30 * time.Second}
			conn, err := d.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return wire.NewStreamConn(conn), nil
		}
	}
	cl, err := client.Connect(ctx, nil, cfg)
	if err != nil {
		return nil, err
	}
	return cl, nil
}

// dialTCPConn dials one TCP peer and wraps it for the wire layer.
func dialTCPConn(addr string) (wire.Conn, error) {
	d := net.Dialer{Timeout: 30 * time.Second}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return wire.NewStreamConn(conn), nil
}

// sortedMemberNames returns the map's keys sorted, so every instance and
// client derives the identical placement ring from the identical name set.
func sortedMemberNames(members map[string]string) []string {
	names := make([]string, 0, len(members))
	for name := range members {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// JoinClusterTCP joins a server to a shadow-cache cluster over real TCP:
// members maps every instance name (this one included) to its shadowd
// address. All instances must be started with the same member set, and the
// instance name must match what clients pass to DialClusterTCP, or
// placement disagrees. Used by cmd/shadowd's -peers flag.
func JoinClusterTCP(srv *Server, instance string, members map[string]string) {
	srv.JoinCluster(ServerClusterSpec{
		Instance: instance,
		Members:  sortedMemberNames(members),
		Dial: func(member string) (wire.Conn, error) {
			addr, ok := members[member]
			if !ok {
				return nil, fmt.Errorf("shadow: unknown cluster member %q", member)
			}
			return dialTCPConn(addr)
		},
	})
}

// DialClusterTCP opens a routed session to every member of a shadow-cache
// cluster over real TCP (name -> address, same names the servers were
// started with). Each member session gets a redialing Dial, so cluster TCP
// sessions are fault tolerant; a member that stays down is routed around
// via the placement ring's successor list. Used by cmd/shadow's -cluster
// flag.
func DialClusterTCP(ctx context.Context, members map[string]string, cfg ClientConfig) (*ClusterClient, error) {
	cms := make([]client.ClusterMember, 0, len(members))
	for _, name := range sortedMemberNames(members) {
		addr := members[name]
		cms = append(cms, client.ClusterMember{
			Name: name,
			Dial: func() (wire.Conn, error) { return dialTCPConn(addr) },
		})
	}
	return client.ConnectCluster(ctx, cms, cfg)
}
