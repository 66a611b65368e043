package main

import (
	"context"
	"testing"
)

func TestRunSmallNetwork(t *testing.T) {
	err := run(context.Background(), []string{
		"-peers", "60", "-objects", "40", "-seed", "5",
		"-lo", "100", "-hi", "300", "-topk", "2", "-churn", "10",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiAttribute(t *testing.T) {
	err := run(context.Background(), []string{
		"-peers", "50", "-objects", "30", "-multi",
		"-lo", "1", "-hi", "4", "-lo2", "50", "-hi2", "200",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunStreaming(t *testing.T) {
	err := run(context.Background(), []string{
		"-peers", "50", "-objects", "40", "-stream", "-lo", "0", "-hi", "500",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}
