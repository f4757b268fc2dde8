package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"rationality/internal/transport"
)

// The echo stage of the stage table has to cross a process boundary, as a real
// verify does: two Go runtimes, each parking in its own poller between
// messages. An echo server inside the generator's process answers in half the
// time and leaves the stage table short by exactly that. So the benchmark runs
// itself a second time as the echo server.

// echoChildFlag is the hidden mode: read one reply message from stdin, serve
// it to every request on a free loopback port, print the address, and exit
// when stdin closes (which it also does if the parent dies).
const echoChildFlag = "-echo-child"

func runEchoChild() int {
	in := bufio.NewReader(os.Stdin)
	var reply transport.Message
	if err := json.NewDecoder(in).Decode(&reply); err != nil {
		fmt.Fprintln(os.Stderr, "bench echo child:", err)
		return 2
	}
	srv, err := transport.ListenTCP("127.0.0.1:0", transport.HandlerFunc(
		func(context.Context, transport.Message) (transport.Message, error) { return reply, nil }))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench echo child:", err)
		return 1
	}
	fmt.Println(srv.Addr())
	_, _ = io.Copy(io.Discard, os.Stdin) // returns when the parent closes the pipe or dies
	srv.Close()
	return 0
}

// startEchoProcess starts the echo server process answering with reply and
// returns its address and a function that stops it and waits.
func startEchoProcess(reply transport.Message) (addr string, stop func() error, err error) {
	self, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	cmd := exec.Command(self, echoChildFlag)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return "", nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	stop = func() error {
		stdin.Close()
		return cmd.Wait()
	}
	if err := json.NewEncoder(stdin).Encode(reply); err != nil {
		_ = stop() // the encode error is the one to report
		return "", nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		_ = stop() // the child's own message is already on stderr
		return "", nil, fmt.Errorf("echo child gave no address: %w", err)
	}
	return strings.TrimSpace(line), stop, nil
}
