package main

import (
	"context"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestEndpointsParsesInOrder(t *testing.T) {
	got, err := endpoints("plant", " a=h1:7001, ,b=h2:7001")
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"a", "h1:7001"}, {"b", "h2:7001"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("endpoints = %v, want %v", got, want)
	}
}

// The shop resolves a route by name, so two endpoints under one name
// would send a VM's destroy to a plant that never hosted it.
func TestEndpointsRejectsARepeatedName(t *testing.T) {
	for _, tc := range []struct{ list, want string }{
		{"dup=h1:7001,dup=h2:7001", `plant name "dup" given twice`},
		{"a=h1:7001,b", `bad plant "b"`},
	} {
		if _, err := endpoints("plant", tc.list); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("endpoints(%q) = %v, want an error containing %s", tc.list, err, tc.want)
		}
	}
}

// The daemon refuses the repeated name before it serves anything: it
// exits non-zero and names it.
func TestDaemonExitsOnARepeatedName(t *testing.T) {
	if os.Getenv("VMSHOPD_MAIN") == "1" {
		os.Args = []string{"vmshopd", "-listen", "127.0.0.1:0", "-debug", "",
			"-plants", "p=127.0.0.1:1", "-peers", "cellB=127.0.0.1:2,cellB=127.0.0.1:3"}
		main()
		return
	}
	// A daemon that accepted the list would serve until killed.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestDaemonExitsOnARepeatedName$")
	cmd.Env = append(os.Environ(), "VMSHOPD_MAIN=1")
	out, err := cmd.CombinedOutput()
	if _, exited := err.(*exec.ExitError); !exited {
		t.Fatalf("daemon did not exit non-zero: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), `peer name "cellB" given twice`) {
		t.Errorf("exit message does not name the repeated peer:\n%s", out)
	}
}
